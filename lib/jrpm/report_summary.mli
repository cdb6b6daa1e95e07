(** A plain-data digest of a {!Pipeline.report} — the headline numbers
    the paper's whole-suite tables (6, 7, Figures 6/10/11) and the
    sweep CLI need, with a JSON codec over {!Obs.Json}.

    A sweep's workload task computes it from the full
    {!Pipeline.report} (TAC, STL table, tracer, annotated program) and
    marshals it back in a {!Daemon.outcome}, with the report only when
    asked: the sweep CLI and the daemon read this summary, the
    paper-table harness reads the report. The JSON codec is for files
    and the wire: [--summary-json], the regression baseline, trace
    metadata and daemon replies. [of_json (to_json s) = s] exactly:
    every float is printed with
    {!Obs.Json}'s round-trippable representation, including non-finite
    values (modulo [=]'s IEEE NaN semantics — a NaN field reloads as
    NaN, which [=] never calls equal; {!Regression} compares with
    NaN-matches-NaN). This also makes the summary array the benchmark
    regression baseline format ({!Regression}, [sweep --baseline]). *)

type anno_summary = {
  cycles : int;
  slowdown : float;  (** vs. plain sequential *)
  locals_cycles : int;
  read_stats_cycles : int;
  loop_anno_cycles : int;
}

type t = {
  name : string;
  config_fingerprint : string;
      (** {!Hydra.Config.fingerprint} of the hardware point the numbers
          were produced under; {!Regression.diff} refuses to compare
          summaries with different fingerprints. Documents written
          before the field existed reload with the default machine's
          fingerprint. *)
  plain_cycles : int;
  base : anno_summary;
  opt : anno_summary;
  tls_cycles : int;
  actual_speedup : float;
  predicted_speedup : float;
  selected_stls : int;  (** number of Eq.-2-chosen decompositions *)
  outputs_match : bool;
  loop_count : int;
  max_static_depth : int;
  max_dynamic_depth : int;
  threads_committed : int;
  violations : int;
  overflow_stalls : int;
  forwarded_loads : int;
}

val of_report : Pipeline.report -> t

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> t
(** @raise Failure on a malformed document. *)
