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
    and speculative threads in one budget (default 2 billion).
    @param obs observability sink (default {!Obs.Sink.null}): receives
    per-thread commit / violation / overflow-stall / sync-stall events.
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
