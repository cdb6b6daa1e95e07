(** Capture metadata and the replay-to-summary path of the trace store.

    A captured record holds the optimized profiling run's raw event
    stream plus, as metadata, everything the pipeline computed around
    that stream: the full interpreted {!Report_summary}, the effective
    {!Test_core.Tracer.config}, the analyzer CPU count, and the
    writer's event/reference-size counters. Replay then re-derives the
    analysis-owned summary fields — [predicted_speedup],
    [selected_stls], [max_dynamic_depth] — by feeding the decoded
    stream to a fresh tracer and re-running
    {!Test_core.Analyzer.select}; every other field passes through from
    the metadata. A faithful codec therefore reproduces the interpreted
    summary {e byte-for-byte} ([matches] below), without re-running the
    interpreter: that equality is the replay-determinism gate CI
    enforces.

    There is one read path: a container is mapped once
    ({!Trace_store.Bytesrc.map_file}, or {!Trace_store.Bytesrc.of_string}
    for bytes in memory), indexed from the mapping
    ({!Trace_store.Index.of_src}), and each record replays in place
    from its offset ({!replay_entry}, {!replay_entry_points}). Fanning
    records out over forked workers that inherit the mapping is the
    caller's plan: {!Daemon.execute} and the server for
    [jrpm trace replay] / [explore] requests, {!Explore.run} for a
    whole grid.

    Metadata schema (JSON object, all fields required unless noted):
    - ["summary"]: {!Report_summary.to_json} of the interpreted run;
    - ["hw_config"]: {!Hydra.Config.to_json} of the hardware point the
      capture ran under (optional — records written before the hardware
      model became a value reload as {!Hydra.Config.default});
    - ["tracer_config"]: the effective tracer hardware configuration
      (fields named after {!Test_core.Tracer.config}; the option fields
      encode as [null] or their payload);
    - ["cpus"]: analyzer CPU count, or [null] for the default;
    - ["events"], ["reference_bytes"]: the writer's
      {!Trace_store.Writer.events} / [reference_bytes] counters, kept
      in the metadata so readers can report compression without
      decoding. *)

type outcome = {
  name : string;                  (** record name (workload name) *)
  recorded : Report_summary.t;    (** summary stored at capture time *)
  replayed : Report_summary.t;    (** summary recomputed from the stream *)
  chosen_stls : int list;
      (** the Eq.-2-chosen STL ids of the replayed analysis, sorted —
          what [jrpm explore] compares across configs to find verdict
          flips *)
  matches : bool;                 (** JSON of [replayed] = JSON of [recorded] *)
  events : int;                   (** events delivered to the tracer *)
  record_bytes : int;             (** encoded record size on disk *)
  reference_bytes : int;          (** uncompressed size [1 + 8·fields] per event *)
}

val capture_run :
  ?hw:Hydra.Config.t ->
  ?tracer_config:Test_core.Tracer.config ->
  ?cpus:int ->
  ?fuel:int ->
  ?sync:bool ->
  ?obs:Obs.Sink.t ->
  name:string ->
  string ->
  Pipeline.report * string
(** Run the full pipeline on one workload source with capture on and
    return the report plus the finished record bytes (ready for
    {!Trace_store.Writer.container}). The record's metadata carries
    the same [tracer_config] / [cpus] the {!Pipeline.run} call used. *)

val fusion_groups :
  recorded_hw:Hydra.Config.t ->
  recorded:Test_core.Tracer.config ->
  Hydra.Config.t list ->
  Test_core.Tracer.config list list
(** The distinct tracer configs a record captured on [recorded_hw]
    under the [recorded] tracer config replays with at the given
    points, grouped by {!Test_core.Tracer.fusion_key} — groups and
    their members in first-use order. Each group is one fused tracer
    run of a {!replay_entry_points} call (before any release split). A
    point's effective config is [recorded] itself when the point equals
    [recorded_hw], otherwise {!Test_core.Tracer.config_of}[
    ~base:recorded hw] (geometry from the point, recorded policy fields
    kept). Only the geometry fields of {!Hydra.Config.t} reach the
    tracer — the Table 2 overheads and the CPU count enter only the
    analysis — so points that differ only in those share a config; and
    configs that differ only in [ld_limit] / [st_limit] share a run. A
    [store_buffer_lines] axis changes only [st_limit], so it fuses; a
    [load_buffer_lines] axis also sizes the load-dedup table, so it
    does not. *)

val replay_entry :
  ?hw:Hydra.Config.t ->
  src:Trace_store.Bytesrc.t ->
  Trace_store.Index.entry ->
  outcome
(** Replay exactly one record of an already-materialized byte source
    through a fresh tracer + analyzer and compare against the recorded
    summary: build a cheap cursor ({!Trace_store.Reader.of_src}),
    {!Trace_store.Reader.seek_record} to the entry's offset, replay in
    place — the one-point case of {!replay_entry_points}, on the same
    code path. Records are self-contained, so the outcome does not
    depend on which other records are replayed, or in which process.
    With [src] a {!Trace_store.Bytesrc.map_file} mapping established
    before the scheduler forks, this is the zero-copy worker task — the
    record handoff is the (offset, length) pair in [entry]; the worker
    opens nothing and copies no chunk.

    [hw] (default: the record's own ["hw_config"], itself defaulting to
    {!Hydra.Config.default} for records written before the field
    existed) re-evaluates the analysis at a {e different} hardware
    point: the tracer runs under the point's effective config (see
    {!fusion_groups}) and the analyzer with the override's overheads and
    CPU count. Only the
    analysis-owned fields ([predicted_speedup], [selected_stls],
    [max_dynamic_depth]) and the [config_fingerprint] reflect the
    override; simulation-derived fields ([tls_cycles],
    [actual_speedup], violation/stall counts) pass through from the
    recorded run and still describe the capture machine — [matches] is
    only meaningful without an override.
    @raise Trace_store.Reader.Corrupt on a malformed stream;
    @raise Failure on malformed metadata. *)

type points = {
  outcomes : outcome list;  (** one per point, in [hws] order *)
  tracer_runs : int;        (** fused tracer runs the record fed *)
  splits : int;
      (** runs started because a run's limit pairs disagreed on a bank
          release: [tracer_runs] minus the {!fusion_groups} count *)
  decoded_events : int;
      (** events decoded, summed over the record's decodes (the first
          and one per release split) *)
  decoded_bytes : int;  (** record bytes decoded, summed likewise *)
  tracer_events : int;
      (** events the record's tracer runs consumed, summed over the
          runs: [decoded_events] times the runs each decode fed *)
}

val work_event : points -> Obs.Event.t
(** The record's work counters as one {!Obs.Event.Replay_work}, for a
    caller to emit once per replayed record. *)

val replay_traced :
  Trace_store.Reader.t -> Hydra.Trace.sink -> Trace_store.Reader.replay_stats
(** {!Trace_store.Reader.replay} into tracer sinks: an operand a tracer
    refuses ({!Test_core.Tracer.Bad_operand}) is a corrupt trace, and
    raises {!Trace_store.Reader.Corrupt} like the decoder's own
    failures. Every replay in this module decodes through it. *)

val replay_entry_points :
  ?hws:Hydra.Config.t list ->
  src:Trace_store.Bytesrc.t ->
  Trace_store.Index.entry ->
  points
(** Replay the entry's record of a pre-mapped container (as
    {!replay_entry}) at every hardware point of [hws] (default: the
    record's own machine) — the per-record explore and replay task.
    The record's metadata is read once and its stream decoded once,
    into one fused tracer per fusion group
    ({!fusion_groups} — teed with {!Hydra.Trace.tee} when there are
    several). When a run's limit pairs disagree on a bank release, the
    run follows its first pair and the others depart
    ({!Test_core.Tracer.departed}); the record is then decoded again
    into one fused run per departed set, until no run splits. The
    Eq. 1 / Eq. 2 analysis then runs once per point over the run and
    pair that served it. Each outcome is identical to a one-point
    {!replay_entry} at the same point; [events] and [record_bytes]
    describe one decode.
    @raise Invalid_argument when [hws] is empty;
    @raise Trace_store.Reader.Corrupt / [Failure] as
    {!replay_entry}. *)

val entry_fusion_groups :
  src:Trace_store.Bytesrc.t ->
  Trace_store.Index.entry ->
  Hydra.Config.t list ->
  Test_core.Tracer.config list list
(** {!fusion_groups} for the entry's record, read from its metadata
    without decoding the stream: the runs {!replay_entry_points} over
    these points starts with.
    @raise Trace_store.Reader.Corrupt / [Failure] on a malformed
    record header or metadata. *)
