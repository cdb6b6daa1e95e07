(** The standard in-memory consumer: a {!Sink.t} that aggregates every
    event into a {!Metrics.t} registry and keeps a bounded event log.

    Aggregation performed on the fly:
    - every event bumps the counter [events.<label>] (so arc and
      overflow totals survive even when the raw log is truncated);
    - [Phase_end] also feeds the histogram [phase.<name>.seconds];
    - [Tls_work] only adds its counts into [tls.passes], [tls.steps]
      and [tls.run_ahead], and [Interp_work] its count into
      [interp.instructions]: neither is counted nor logged as an
      event;
    - the raw event log keeps the first [max_events] events; later ones
      are dropped (but still counted) and reported via
      {!dropped_events}.

    Callers may also bump their own metrics through {!metrics} — the
    pipeline uses this for run-level gauges such as cycle counts. *)

type t

val create : ?max_events:int -> unit -> t
(** [max_events] bounds the raw event log (default [10_000]). *)

val sink : t -> Sink.t
(** The live sink feeding this recorder. *)

val metrics : t -> Metrics.t
(** The registry, shared with callers for run-level counters/gauges. *)

val events : t -> Event.t list
(** The retained raw log, in emission order. *)

val dropped_events : t -> int
(** Events past [max_events], counted but not retained. *)

val phase_spans : t -> (string * int * float) list
(** [(phase, spans, total_seconds)] per phase, in first-begin order;
    nested or repeated phases accumulate. *)

val phase_rows : t -> string list list
(** [[phase; spans; seconds; share%]] rows for {!Util.Text_table};
    share is of the summed phase time. *)

val merge : t -> t -> unit
(** [merge t other] folds [other]'s recorded state into [t]: the metric
    registries merge per {!Metrics.merge}, per-phase span counts and
    totals add, dropped counts add, and [other]'s retained events are
    appended to [t]'s log (subject to [t]'s [max_events] bound; extras
    count as dropped). [other] is unchanged. Counters are NOT re-bumped
    for the appended events — they already arrive via the registry
    merge. Merging the per-worker recorders of a parallel sweep in a
    fixed order yields a deterministic aggregate. *)

val to_json : t -> Json.t
(** The full dump:
    [{"schema_version": 1, "metrics": {...}, "phases": [{"phase",
    "spans", "total_s"}], "events": [...], "dropped_events": n}].
    The schema is documented in ARCHITECTURE.md; bump [schema_version]
    on breaking changes. *)
