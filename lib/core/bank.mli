(** One TEST comparator bank (paper Fig. 7).

    A bank tracks one active STL activation: the loop-entry timestamp,
    current / previous thread-start timestamps, the per-thread shortest
    ("critical") dependency arc in each bin, and per-thread speculative
    line counts for the overflow analysis. [end_thread] is the [eoi]
    operation of Table 4; [merge_into] folds the bank's accumulators
    into the per-STL {!Stats.t} at [eloop].

    A bank judges overflow against a vector of (load, store) line-limit
    pairs — one per hardware point a fused tracer serves. Everything
    else is shared by the pairs. Since the line counts only grow within
    a thread, a thread overflowed under pair k exactly when its counts
    at [end_thread] exceed pair k's limits: the per-event path only
    counts lines, and decides nothing per pair. *)

type t = {
  mutable stl : int;
  mutable stats : Stats.t;
      (** the per-STL statistics this bank merges into — cached here so
          the per-arc hot path never does a hashtable lookup *)
  mutable pair_overflow : int array;
      (** the STL's overflowing-thread totals, one per limit pair, that
          [merge_into] adds to; pair 0's total is mirrored into
          [stats.overflow_threads] *)
  mutable obs : Obs.Sink.t;
      (** observability sink; {!Obs.Sink.null} when off *)
  mutable obs_on : bool;
      (** [Obs.Sink.enabled obs], cached so the per-event path makes no
          call when the sink is off *)
  mutable entry_time : int;
  mutable start_t : int;
  mutable start_tm1 : int;
  mutable cur_min_prev : int;
  mutable cur_min_earlier : int;
  mutable ld_lines : int;
  mutable st_lines : int;
  mutable overflowed : bool;
      (** the current thread's {!Obs.Event.Overflow} was emitted *)
  mutable threads : int;
  mutable acc_prev_count : int;
  mutable acc_prev_len : int;
  mutable acc_earlier_count : int;
  mutable acc_earlier_len : int;
  acc_overflow : int array;  (** overflowing threads since entry, per pair *)
  mutable max_ld : int;
  mutable max_st : int;
  ld_limits : int array;     (** load-buffer lines per thread, per pair *)
  st_limits : int array;     (** store-buffer lines per thread, per pair *)
}

val create : ld_limits:int array -> st_limits:int array -> unit -> t
(** An idle bank (STL [-1]) judging overflow against the limit pairs
    [(ld_limits.(k), st_limits.(k))]; the arrays are shared, not
    copied. {!reuse} arms it for an activation.
    @raise Invalid_argument when the vectors are empty or differ in
    length. *)

val reuse :
  t ->
  obs:Obs.Sink.t ->
  stats:Stats.t ->
  pair_overflow:int array ->
  stl:int ->
  now:int ->
  unit
(** Arm a bank for an activation of [stl] entered at cycle [now], in
    place, so the tracer can pool bank records through a free-list and
    keep the sloop/eloop boundary allocation-free. [stats] and
    [pair_overflow] are the tracer's per-STL records the bank merges
    into; [obs] receives an {!Obs.Event.Overflow} the first time each
    thread's footprint crosses pair 0's limits. *)

(** {2 Arc codes} — unboxed ints, so that classifying a dependency on
    the per-event path allocates nothing; the arc length is always
    [now - store_ts]. *)

val arc_none : int
val arc_prev : int
val arc_earlier : int

val note_load_dep_code : t -> store_ts:int -> now:int -> int
(** Dependency-arc identification (paper Sec. 4.2.1) plus per-thread
    critical (shortest) arc tracking. A store timestamp within the
    current thread is not an arc ({!arc_none}); within the previous
    thread it is an {!arc_prev} arc; after loop entry but before the
    previous thread an {!arc_earlier} arc; before loop entry it is an
    input, not a dependency ({!arc_none}). Allocation-free. *)

val note_load_line : t -> in_current_thread:bool -> now:int -> unit
(** Overflow analysis, load side (Fig. 4 column f): count a newly
    touched speculative line unless the line was already accessed by the
    current thread. Allocation-free. *)

val note_store_line : t -> in_current_thread:bool -> now:int -> unit
(** Overflow analysis, store side — same counting over store lines. *)

val end_thread : t -> now:int -> unit
(** Finalize the current thread — count it as overflowing under each
    limit pair its line counts exceed — and shift thread-start
    timestamps. *)

val merge_into : t -> now:int -> unit
(** Finalize the final (partial) thread and accumulate everything into
    the bank's per-STL statistics and per-pair overflow totals. *)
