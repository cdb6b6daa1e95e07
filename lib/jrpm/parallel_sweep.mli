(** Multi-core benchmark sweep.

    Every {!Pipeline.run} over a registry workload is independent, so
    the full Table-6 sweep fans out across worker Unix processes — one
    {e task} per workload on the work-stealing {!Scheduler} pool:

    - the parent hands workload indices to a persistent pool of [jobs]
      forked workers, one at a time; a worker that finishes early
      immediately receives the next pending workload, so one slow
      workload no longer idles the rest of the pool (the old static
      round-robin sharding did);
    - each worker runs the complete pipeline for the workload with its
      own {!Obs.Recorder} (when [observe]) and ships its {!outcome}
      back as the scheduler's result frame (marshalled — workers are
      forks of this executable, so closures survive); the captured
      trace record bytes ride along when [capture];
    - the scheduler slots results by workload index, so outcomes come
      back in registry order.

    Determinism: the pipeline itself is deterministic and outcomes are
    ordered by registry index, never by arrival, so any [jobs] value
    produces the same outcome list (recorder wall-clock phase spans
    excepted) — byte-stable golden output regardless of worker
    scheduling. Merge per-workload recorders in
    registry order ({!merged_recorder}) for a deterministic aggregate.

    A worker that dies or reports an exception fails the whole sweep
    with a [Failure] naming the workload it was running (the
    scheduler's failure semantics). *)

type outcome = {
  workload : Workloads.Workload.t;
  report : Pipeline.report;
  summary : Report_summary.t;  (** [Report_summary.of_report report] *)
  recorder : Obs.Recorder.t option;
      (** the worker's per-workload recorder; [None] unless the sweep
          ran with [observe] *)
  trace : string option;
      (** the workload's finished trace-store record bytes; [None]
          unless the sweep ran with [capture]. Records are
          self-contained, so the parent assembles one container by
          byte-copying them in registry order ({!container}). *)
}

val default_jobs : unit -> int
(** Core count ({!Scheduler.core_count}); the [JRPM_JOBS] environment
    variable overrides it. An invalid override (not a positive integer)
    is diagnosed on stderr and treated as unset. *)

val run :
  ?jobs:int ->
  ?observe:bool ->
  ?capture:bool ->
  ?workloads:Workloads.Workload.t list ->
  unit ->
  outcome list
(** [run ()] sweeps [workloads] (default: the whole registry, in
    Table-6 order) across [jobs] workers (default {!default_jobs}) and
    returns outcomes in registry order. [observe] (default [false])
    attaches a fresh {!Obs.Recorder} to every workload's pipeline run
    and records {!Pipeline.record_report_metrics} gauges, exactly like
    the sequential bench harness. [capture] (default [false]) records
    every workload's optimized profiling event stream into a
    trace-store record ({!Replay.capture_run}); workers ship the
    finished record bytes back in the outcome. {!Scheduler.map} runs
    the sweep sequentially in-process when [jobs <= 1], when forking is
    unavailable (Windows), or for a single workload.
    @raise Failure when a worker fails, naming the workload it ran. *)

val container : outcome list -> string option
(** Assemble the outcomes' captured records (in list order) into one
    trace-store container ({!Trace_store.Writer.container}); [None]
    when the sweep ran without [capture]. *)

val merged_recorder : outcome list -> Obs.Recorder.t option
(** Fold every per-workload recorder into one fresh recorder (in list
    order, so registry order for {!run} output); [None] when the sweep
    ran unobserved. *)
