(** Speculative execution of a TLS-compiled program on the 4-CPU Hydra
    model.

    Sequential code runs on one CPU, in {!Seq_interp}'s loop (the same
    loop as {!Seq_interp.run}, through {!Seq_interp.exec}). At a
    [Tls_enter] marker whose STL has a plan in the current function,
    that loop hands the region to this module, which executes it as
    speculative threads — one loop iteration per thread, up to
    [config.num_cpus] in flight:

    - each thread runs against a private speculative write buffer; loads
      search the own buffer, then less-speculative threads' buffers (with
      the Table-2 store-load forwarding penalty), then committed memory;
    - a store that hits a more-speculative thread's read set violates it:
      that thread and all younger ones restart (Table-2 restart penalty
      plus reloading register-allocated invariants);
    - speculative read/write state beyond the Table-1 line limits stalls
      the thread until it becomes the head (non-speculative) thread;
    - threads commit in order; committing a thread that took a loop exit
      squashes younger threads and returns control to sequential code.

    Inductor locals are seeded per thread ([x0 + k*step]); reduction
    locals are privatized to the identity and merged in commit order, so
    results — including float reductions — equal sequential execution. *)

type spec_stats = {
  threads_committed : int;
  violations : int;            (** restart events (threads restarted) *)
  overflow_stalls : int;       (** threads that stalled on buffer overflow *)
  forwarded_loads : int;       (** loads served from another thread's buffer *)
  loops_entered : int;         (** dynamic [Tls_enter] activations *)
  spec_cycles : int;           (** cycles spent inside speculative regions *)
  sync_stalls : int;           (** loads delayed by learned synchronization *)
}

type result = {
  cycles : int;
  output : Ir.Value.t list;
  memory : Machine.Memory.t;
  stats : spec_stats;
}

exception Out_of_fuel of int
(** {!Machine.Out_of_fuel}, re-exported. *)

val run :
  ?config:Config.t ->
  ?fuel:int ->
  ?sync:bool ->
  ?obs:Obs.Sink.t ->
  Native.program ->
  result
(** @param config hardware point to simulate (default
    {!Config.default}): CPU count, Table-1 buffer limits, and Table-2
    overheads all come from it.
    @param fuel maximum dynamic instructions across all CPUs, master
    and speculative threads in one budget (default 2 billion). A
    speculative thread executes the frame-private instructions after
    each of its steps ahead of simulated time, and they count when they
    execute: those that a later violation restart or squash throws away
    count too (0.9% more instructions over the default 26-workload
    sweep), so a run can exhaust its fuel slightly earlier than the
    instructions it simulates would.
    @param obs observability sink (default {!Obs.Sink.null}): receives
    per-thread commit / violation / overflow-stall / sync-stall events,
    and one {!Obs.Event.Tls_work} with the run's scheduler passes,
    thread steps and run-ahead instructions when the run ends.
    @param sync enable learned synchronization (default false): the
    hardware remembers the PCs of loads whose data was later overwritten
    by a less-speculative store (a violation) and, on later executions,
    delays those loads until the producer's store is visible instead of
    restarting — the violation-minimizing mechanism of the paper's
    citations [10]/[30] (Cintra-Torrellas / Steffan et al.).
    @raise Machine.Trap only for traps reached non-speculatively
    (speculative traps squash silently with the thread). A negative
    heap address or allocation size, or a value of the wrong kind
    (a Float address or ALU operand), e.g. through an index forwarded
    from an older thread's short-lived store, traps like any other
    instruction: it reaches the caller only if the thread becomes the
    head. *)

(** {2 Hydra-internal}

    The table that holds each CPU slot's speculative state, exposed for
    its tests; nothing outside [lib/hydra] and the tests uses it. *)

module Spec_table : sig
  type t = {
    mutable keys : int array;
    mutable stamps : int array;
        (** slot [i] is live iff [stamps.(i) = gen] *)
    mutable ints : int array;
    mutable floats : float array;
    mutable kinds : Bytes.t;
        (** a slot's value, tagged like a {!Machine.frame}'s file *)
    mutable live : int array;  (** the live slots, in insertion order *)
    mutable size : int;        (** live slots: [live.(0 .. size-1)] *)
    mutable gen : int;
    mutable shift : int;       (** [Sys.int_size] minus log2 of the capacity *)
  }
  (** An int-keyed hash table with linear probing. It never holds more
      live slots than half its capacity and doubles when it would; an
      insert into spare capacity allocates nothing. {!clear} bumps
      [gen], so it is O(1) at any capacity. *)

  val create : int -> t
  (** A table with room for at least [n] keys before it grows. *)

  val clear : t -> unit
  val length : t -> int

  val find : t -> int -> int
  (** The slot holding the key, or [-1]. *)

  val mem : t -> int -> bool

  val add : t -> int -> unit
  (** Insert the key if absent (set membership); a new slot's value is
      whatever the slot last held. *)

  val replace : t -> int -> int -> unit
  (** Bind the key to an int value in [ints], inserting it if absent. *)

  val iter : t -> (t -> int -> unit) -> unit
  (** [iter t f] calls [f t i] on every live slot [i] once, in insertion
      order: the commit flush. *)
end
