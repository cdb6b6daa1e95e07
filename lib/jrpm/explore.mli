(** Hardware design-space exploration over a captured trace archive.

    [jrpm explore] evaluates a cartesian grid of {!Hydra.Config.t}
    variants against the trace store: every record is replayed at every
    grid point and the Eq. 1 / Eq. 2 analysis re-run at that machine —
    no re-interpretation. The default machine is always evaluated first
    as the reference column and its summaries are byte-identical to
    interpreted sweep output (the replay-determinism invariant).

    The unit of work is one {e record}, not one (point × record) cell.
    Only part of a config reaches the tracer:
    - {e tracer geometry} — [comparator_banks], [heap_ts_fifo_lines],
      [cacheline_ts_lines], [local_ts_slots], [load_buffer_lines],
      [store_buffer_lines], [line_words] (what
      {!Test_core.Tracer.config_of} reads);
    - {e analysis only} — the Table 2 overheads [loop_startup],
      [loop_shutdown], [loop_eoi], [violation_restart],
      [store_load_communication], and [num_cpus], which enter only
      {!Test_core.Analyzer.select}.

    So a record task ({!eval_record}) seeks its record once, reads its
    metadata once, builds one tracer per fusion group
    ({!Replay.fusion_groups}: effective configs equal up to their
    [ld_limit] / [st_limit], which one fused run serves as a vector of
    limit pairs), decodes the stream once into all of them, and runs
    the analysis once per point. A [cpus] × [store_buffer] grid of
    3 × 3 over 26 records is 26 decodes and 26 tracer runs, not 234 of
    each. A run whose limit pairs disagree on a bank release splits:
    the record is decoded again for the pairs that departed (see
    {!Replay.replay_entry_points}).

    The archive is mapped once ({!Trace_store.Bytesrc.map_file}) and
    indexed from the mapped tail; {!run} fans out one {!Scheduler} task
    per record over the mapping the forked workers inherit, weighted by
    events × fusion groups ({!record_weight}) so a dominant record
    dispatches first; the per-record results are transposed into
    grid-order points afterward ({!assemble_records}). [jrpm explore]
    and [jrpm client explore] are one {!Daemon} explore request, whose
    plan holds the same record tasks: {!Daemon.execute} maps them over
    a per-call pool with the same weights, the server submits them to
    its persistent pool. Either way the result is the {!to_json}
    document, and both commands print {!render} of its {!of_json}.

    Simulation-derived summary fields ([tls_cycles], [actual_speedup],
    violation/stall counts) pass through from the capture machine —
    only the analysis verdicts and predictions respond to the config
    (see {!Replay.replay_entry}). *)

type axis = { field : string; values : int list }

val parse_grid : string list -> axis list
(** Parse [--grid] specs of the form ["axis=v1,v2,..."]; axis names are
    the {!Hydra.Config.short_names} ([cpus], [banks], [heap_fifo],
    [cacheline_ts], [local_slots], [load_buffer], [store_buffer],
    [line_words], [startup], [shutdown], [eoi], [restart], [forward])
    or the canonical field names.
    @raise Failure on malformed specs, unknown axes, or a repeated
    axis. *)

val points : axis list -> Hydra.Config.t list
(** Cartesian product applied to {!Hydra.Config.default}, row-major:
    the first axis varies slowest, values in listed order. Each point
    is validated ({!Hydra.Config.validate}).
    @raise Invalid_argument on an out-of-range point. *)

val configs_of_grid : axis list -> Hydra.Config.t list
(** {!points} with the default machine prepended as the reference point
    and duplicate fingerprints collapsed (first occurrence wins). *)

type cell = {
  workload : string;
  summary : Report_summary.t;  (** replayed at this config point *)
  chosen_stls : int list;  (** Eq.-2-chosen STL ids, sorted *)
}

type point_result = {
  config : Hydra.Config.t;
  fingerprint : string;
  label : string;  (** {!Hydra.Config.label} — diff vs default *)
  cells : cell list;  (** archive record order *)
}

type flip = {
  flip_workload : string;
  flip_label : string;
  flip_fingerprint : string;
  default_chosen : int list;
  chosen : int list;
  default_speedup : float;  (** predicted, at the default point *)
  speedup : float;  (** predicted, at this point *)
}

type t = {
  archive : string;  (** path of the replayed container *)
  points : point_result list;  (** default first, then grid order *)
  flips : flip list;
      (** every (workload, non-default point) whose chosen-STL set
          differs from the default column *)
}

val eval_record :
  src:Trace_store.Bytesrc.t -> Hydra.Config.t list ->
  Trace_store.Index.entry -> cell list * Obs.Event.t
(** Replay one record of a pre-mapped container at every given config
    point ({!Replay.replay_entry_points}), returning one cell per point
    in the given order and the record's {!Replay.work_event} — the
    grid's unit of work, shared by {!run} and the {!Daemon} explore
    plan.
    @raise Trace_store.Reader.Corrupt / [Failure] as
    {!Replay.replay_entry_points}. *)

val eval_cell :
  src:Trace_store.Bytesrc.t -> Hydra.Config.t -> Trace_store.Index.entry ->
  cell
(** One record at one config point: the one-point case of
    {!eval_record} ({!Replay.replay_entry} with [?hw]).
    @raise Trace_store.Reader.Corrupt / [Failure] as
    {!Replay.replay_entry}. *)

val cell_tasks :
  Hydra.Config.t list -> Trace_store.Index.entry list ->
  (Hydra.Config.t * Trace_store.Index.entry) list
(** The config-major (point × record) cell order {!assemble} expects;
    [List.map eval_cell] over it is the cell-at-a-time reference for
    {!run}'s matrix. *)

val assemble :
  archive:string -> configs:Hydra.Config.t list -> records:int ->
  cell list -> t
(** Regroup a flat config-major cell list ({!cell_tasks} order, i.e.
    [records] cells per config in archive record order) into the full
    matrix with fingerprints, labels, and verdict flips.
    @raise Failure when the cell count is not
    [configs * records]. *)

val assemble_records :
  archive:string -> configs:Hydra.Config.t list -> cell list list -> t
(** {!assemble} over per-record results: one {!eval_record} list per
    archive record, in archive order, scattered back into {!cell_tasks}
    order.
    @raise Failure when a record's list is not one cell per config. *)

val record_weight :
  src:Trace_store.Bytesrc.t -> Hydra.Config.t list ->
  Trace_store.Index.entry -> float
(** The schedule weight of one {!eval_record} task: the record's events
    times its {!Replay.entry_fusion_groups} count over the points, read
    from the metadata without decoding — the work of the task's decodes
    before any release split. {!run} and {!Daemon.execute} weight
    record tasks with it. *)

val run : ?jobs:int -> grid:string list -> path:string -> unit -> t
(** Kept for the benchmark ([perfbench/main.ml]); the commands run
    explore as a {!Daemon.execute} plan, and the benchmark change of
    ROADMAP item 2 deletes this. Parse [grid], evaluate {!configs_of_grid} over the container at
    [path] — one {!eval_record} scheduler task per record across [jobs]
    workers (default {!Scheduler.default_jobs}), weighted by
    {!record_weight} — and report
    verdict flips. Output is byte-identical for any [jobs], and to
    {!assemble} over [List.map eval_cell (cell_tasks …)].
    @raise Failure on grid errors or worker failures;
    @raise Trace_store.Reader.Corrupt / [Sys_error] on a bad archive. *)

val default_point : t -> point_result
val default_summaries : t -> Report_summary.t list
(** The reference column — byte-identical to [jrpm sweep] summaries of
    the same workloads. *)

val workloads : t -> string list

val render : t -> string
(** The per-(workload × config) verdict/speedup matrix (cells are
    [chosen @ predicted], [*] marks a chosen-set change vs default)
    followed by the verdict-flips table. *)

val to_json : t -> Obs.Json.t
(** Machine-readable matrix ([schema_version] 1): workloads, one entry
    per config point (fingerprint, label, config, per-workload summary
    + chosen STLs), and the flips list. *)

val of_json : Obs.Json.t -> t
(** Inverse of {!to_json}: [to_json (of_json (to_json t)) = to_json t]
    and [render (of_json (to_json t)) = render t], byte for byte. The
    matrix a client receives from the daemon renders through this.
    @raise Failure on a malformed document. *)
