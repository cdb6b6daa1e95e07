(** The TEST trace hardware model.

    Connect {!sink} to {!Hydra.Seq_interp.run}'s trace interface and run
    the annotated program sequentially; the tracer performs the load
    dependency analysis and the speculative state overflow analysis of
    paper Sec. 4.2 for every traced STL, using the finite-capacity
    timestamp buffers of Sec. 5.3:

    - heap store timestamps: a FIFO of cache-line-sized entries with
      per-word timestamps (192 lines — 6 kB of write history; older
      stores are forgotten, losing distant dependencies);
    - a direct-mapped cache-line timestamp table used to deduplicate
      per-thread load-line counting (512 entries) and store-line counting
      (64 entries) — aliasing introduces the imprecision the paper
      acknowledges;
    - local-variable store timestamps (64 slots, reserved per [sloop]).

    Comparator banks are allocated at [sloop] (precedence naturally goes
    to outer loops, which start first) and freed at [eloop]; when no bank
    or no local-timestamp space is available, the activation goes
    untraced — only its cycle/entry accounting is kept. *)

type config = {
  banks : int;
  heap_fifo_lines : int;
  ld_dedup_entries : int;
  st_dedup_entries : int;
  local_slots : int;
  ld_limit : int;              (** load-buffer lines per thread (Table 1) *)
  st_limit : int;              (** store-buffer lines per thread (Table 1) *)
  line_words : int;
  max_entries_per_stl : int option;
      (** dynamic disabling: stop tracing an STL after this many entries *)
  release_overflowing : (int * float) option;
      (** [(min_entries, freq)] — stop allocating banks to an STL whose
          measured overflow frequency is at least [freq] after
          [min_entries] entries, freeing banks for deeper loops
          (paper Sec. 5.2) *)
}

val default_config : config
(** The paper's hardware: 8 banks, 192-line FIFO, 512/64 dedup entries,
    64 local slots, 512/64 line limits, 8 words per line, no entry cap,
    and bank release for STLs that overflow on ≥90% of threads after 4
    entries. *)

val config_of : ?base:config -> Hydra.Config.t -> config
(** Derive a tracer config from a hardware model: geometry fields
    (banks, FIFO lines, dedup entries, local slots, line limits, line
    words) come from the {!Hydra.Config.t}; policy fields
    ([max_entries_per_stl], [release_overflowing]) are kept from [base]
    (default: {!default_config}'s). {!default_config} is [config_of
    Hydra.Config.default]. *)

type t

val create : ?config:config -> ?obs:Obs.Sink.t -> unit -> t
(** A fresh tracer; [obs] (default {!Obs.Sink.null}) receives
    bank-allocation / starvation / release, dependency-arc, and
    buffer-overflow events as the trace is consumed. [create ~config]
    is [create_fused [config]]. *)

(** {2 Fused runs}

    One tracer run can serve several configs that differ only in
    [ld_limit] / [st_limit] — the {e limit pairs}. The FIFO, the dedup
    tables, the banks and the arcs are shared; each bank counts the
    threads that overflow each pair at [eoi]
    ({!Bank.end_thread}). The limits reach the shared state through one
    decision only: the [release_overflowing] test at [sloop], which each
    pair evaluates over its own overflow count. While every pair agrees
    the run serves them all. At the first disagreement the run follows
    pair 0, and the pairs that answered otherwise {e depart}: their
    statistics are no longer this run's, and a caller re-runs them (for
    example as a fused run of their own). *)

val fusion_key : config -> config
(** [config] with both limits zeroed: configs with equal keys can
    share one run. *)

val create_fused : ?obs:Obs.Sink.t -> config list -> t
(** One run serving every config of the list, pair k being the k-th
    config's [(ld_limit, st_limit)]. Overflow events on [obs] describe
    pair 0.
    @raise Invalid_argument when the list is empty or its configs'
    {!fusion_key}s differ. *)

val departed : t -> int list
(** The pairs that departed at a diverging release decision, ascending;
    pair 0 never departs. *)

exception Bad_operand of string
(** An event operand outside what the hardware model can index: a
    negative heap address, a local slot outside [\[0, 2^20)], a frame
    outside [\[0, max_int / 2^20\]], a negative local-store timestamp,
    or an STL id outside [\[0, 2^20)] at a loop exit. The interpreter
    never emits one; a replayed stream that carries one is a corrupt
    trace, and replay reports it as such. The message names the
    operand. *)

val sink : t -> Hydra.Trace.sink
(** The event interface to plug into the sequential interpreter. Its
    callbacks check each operand once, where the hardware model would
    index by it. @raise Bad_operand on an operand outside the model's
    domain. *)

val stats : ?pair:int -> t -> (int * Stats.t) list
(** Per-STL accumulated statistics under limit pair [pair] (default 0),
    sorted by STL id. The records of pairs other than 0 are copies that
    share the [pc_bins] table.
    @raise Invalid_argument when [pair] is out of range or departed. *)

val find_stats : ?pair:int -> t -> int -> Stats.t option
(** Statistics for one STL, if it was ever entered, as {!stats}.
    @raise Invalid_argument as {!stats}. *)

val child_cycles : t -> ((int * int) * int) list
(** Dynamic nesting: [((parent, child), cycles)] — cycles spent in
    activations of [child] whose innermost enclosing active STL was
    [parent]; parent [-1] means top level. *)

val max_dynamic_depth : t -> int
(** Deepest observed STL activation nesting (paper Table 6 col. d). *)

val untraced_activations : t -> int
(** Activations that could not get a comparator bank (or local slots).
    Like {!child_cycles} and {!max_dynamic_depth}, it holds for every
    pair that has not departed. *)

val events_consumed : t -> int
(** Total {!sink} callbacks this tracer has consumed, including the
    call/return events it ignores. Capture and replay use it to assert
    that a replayed tracer saw exactly as many events as the recorded
    interpretation delivered; the counter is a single int increment, so
    the per-event hot path stays allocation-free. *)

(** {2 Cache-health counters}

    Exported as [tracer.*] gauges by the pipeline (visible under
    [--profile]): how often the finite timestamp buffers lost history.
    High eviction counts mean distant dependencies were forgotten; high
    dedup-conflict counts mean the direct-mapped line tables aliased. *)

val heap_fifo_evictions : t -> int
(** Lines pushed out of the heap store-timestamp FIFO by capacity. *)

val local_ts_evictions : t -> int
(** Local-variable timestamps evicted by capacity. *)

val ld_dedup_conflicts : t -> int
(** Load-dedup entries overwritten by a line with a different tag. *)

val st_dedup_conflicts : t -> int
(** Store-dedup entries overwritten by a line with a different tag. *)
