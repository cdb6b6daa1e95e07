(** Per-STL statistics accumulated by TEST, and the derived values of
    the paper's Figure 3 bottom table.

    Counter semantics:
    - [threads] / [entries] / [cycles] count {e all} observed iterations,
      loop entries, and cycles (from the annotation events), while
      [traced_threads] / [traced_entries] count only activity observed
      while a comparator bank was allocated — frequencies are computed
      over the traced subset so that bank exhaustion or release does not
      dilute them;
    - critical arcs are binned {e to the previous thread} (t-1) and
      {e to earlier threads} (<t-1); per thread only the shortest arc in
      each bin is accumulated (paper Sec. 4.2.1);
    - [overflow_threads] counts threads whose speculative read or write
      line footprint exceeded the Table 1 buffer limits;
    - [pc_bins] is the extended implementation's per-load-PC dependency
      profile (paper Sec. 6.3). *)

type pc_bin = {
  mutable hits : int;
  mutable total_len : int;
  mutable min_len : int;
  mutable thread_size_sum : int;
}

type pc_bins
(** The per-load-PC bins of one STL: an int-keyed open-addressed table,
    read through {!fold_pc_bins}. *)

type t = {
  stl : int;
  mutable cycles : int;
  mutable threads : int;
  mutable entries : int;
  mutable traced_threads : int;
  mutable traced_entries : int;
  mutable crit_prev_count : int;
  mutable crit_prev_len : int;
  mutable crit_earlier_count : int;
  mutable crit_earlier_len : int;
  mutable overflow_threads : int;
  mutable max_load_lines : int;
  mutable max_store_lines : int;
  pc_bins : pc_bins;
}

val create : int -> t
(** [create stl] — fresh zeroed statistics for STL [stl]. *)

val record_pc_hit : t -> pc:int -> len:int -> thread_size:int -> unit
(** Extended TEST: bin one detected dependency arc by its load PC. *)

val fold_pc_bins : (int -> pc_bin -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the recorded [(pc, bin)] pairs, in no specified order. *)

(** {2 Derived values (paper Fig. 3)} *)

val avg_thread_size : t -> float
(** Cycles per thread; [0.] when no threads were observed. *)

val avg_iters_per_entry : t -> float
(** Threads per loop entry; [0.] when the loop was never entered. *)

val crit_prev_freq : t -> float
(** Fraction of (traced, non-first) threads with a critical arc to the
    previous thread. *)

val crit_earlier_freq : t -> float
(** Same fraction for arcs into threads earlier than t-1. *)

val avg_crit_prev_len : t -> float
(** Mean critical-arc length in the t-1 bin; [0.] with no arcs. *)

val avg_crit_earlier_len : t -> float
(** Mean critical-arc length in the <t-1 bin; [0.] with no arcs. *)

val overflow_freq : t -> float
(** Fraction of traced threads predicted to overflow the buffers. *)

val overflow_freq_of : t -> overflow_threads:int -> float
(** {!overflow_freq} with [overflow_threads] in place of the record's
    own count — a fused tracer's view under another limit pair. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump of all counters and derived values. *)
