(** Benchmark-regression gate: diff a fresh sweep's
    {!Report_summary.t} records against a checked-in baseline.

    The paper's headline claim (Fig. 8) is that TEST's {e predicted}
    speedup tracks the {e actual} TLS speedup; this module is what
    keeps both from drifting silently while hot paths are rewritten.
    A baseline is the JSON array written by
    [jrpm sweep --summary-json] (one {!Report_summary.t} per
    workload); {!diff} pairs baseline and current records by workload
    name and classifies every field:

    - {b exact} fields ([outputs_match], [selected_stls],
      [loop_count], depth / thread / violation / stall / forward
      counts) must be identical — any change is a {!Fail};
    - {b relative} fields (cycle counts, speedups, profiling
      slowdowns) compare by percentage delta against the baseline
      value under {!default_tolerance}: within [warn_pct] is a {!Pass},
      within [fail_pct] a {!Warn}, beyond it a {!Fail}. Both bounds
      are inclusive — a delta of exactly [warn_pct] still passes. A
      zero or non-finite baseline has no meaningful relative delta,
      so those degrade to exact comparison (NaN matches NaN).

    Workloads present on only one side are reported as {!Added} /
    {!Removed} and count as failures: the baseline must be refreshed
    deliberately ([jrpm sweep --jobs 1 --summary-json FILE]), never
    implicitly. *)

type verdict = Pass | Warn | Fail

type tolerance = {
  warn_pct : float;  (** relative delta (%) above which a field warns *)
  fail_pct : float;  (** relative delta (%) above which a field fails *)
}

val default_tolerance : tolerance
(** [{ warn_pct = 2.0; fail_pct = 5.0 }], the one tolerance {!diff}
    classifies relative fields under. *)

type field_diff = {
  field : string;  (** e.g. ["tls_cycles"], ["opt.slowdown"] *)
  baseline : string;  (** rendered baseline value *)
  current : string;  (** rendered current value *)
  delta_pct : float option;
      (** signed relative delta in percent (verdicts use its
          magnitude); [None] for exact fields and for zero /
          non-finite baselines *)
  field_verdict : verdict;
}

type workload_diff =
  | Matched of field_diff list
      (** present on both sides; one entry per compared field *)
  | Added  (** in the current sweep but not the baseline *)
  | Removed  (** in the baseline but not the current sweep *)

type t = {
  workloads : (string * workload_diff) list;
      (** baseline order, then added workloads in sweep order *)
  worst : verdict;  (** [Fail] ≻ [Warn] ≻ [Pass] over every field *)
}

val diff :
  baseline:Report_summary.t list ->
  current:Report_summary.t list ->
  unit ->
  t
(** @raise Failure (with both fingerprints in the message) when a
    matched pair of summaries carries different
    [config_fingerprint]s — a baseline produced under one hardware
    config must never be fail-classified against numbers from
    another; regenerate the baseline or key it by config instead. *)

val failed : t -> bool
(** [worst = Fail] — the CLI's exit-status predicate. *)

val table_rows : t -> string list list
(** Rows for {!Util.Text_table} — [workload; field; baseline;
    current; delta; verdict] — for every non-[Pass] field and every
    added/removed workload. *)

val render : t -> string
(** The per-workload diff table plus a one-line summary; degenerates
    to the summary line alone when everything passes. *)

val load_baseline : string -> Report_summary.t list
(** Read a baseline file (the [--summary-json] array format).
    @raise Failure on unreadable files or malformed documents, with
    the file name in the message. *)
