(** A named-metric registry: monotonic counters, gauges, and histograms.

    Names are dotted paths by convention ([tracer.arcs_prev],
    [phase.analyze.seconds]); the registry is flat — the dots only
    matter to readers. Histograms are streaming summaries built on
    {!Util.Running_stat} (count / sum / mean / min / max), which is all
    the perf-trajectory tooling needs and keeps updates O(1).

    All operations auto-create the metric on first use; using one name
    with two different kinds raises [Invalid_argument]. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a monotonic counter (default [by:1]); negative [by] raises
    [Invalid_argument]. *)

val set_gauge : t -> string -> float -> unit
(** Set a last-value-wins gauge. *)

val observe : t -> string -> float -> unit
(** Add one sample to a histogram. *)

val counter : t -> string -> int
(** Current counter value; [0] if the counter was never bumped. *)

val gauge : t -> string -> float option
(** Current gauge value; [None] if never set. *)

val histogram : t -> string -> Util.Running_stat.t option
(** The underlying accumulator; [None] if never observed. *)

val merge : t -> t -> unit
(** [merge t other] folds [other] into [t]: counters add, histograms
    merge their {!Util.Running_stat} state, and gauges take [other]'s
    value (last-merged-wins — merge registries in a deterministic order
    when gauge values matter). [other] is unchanged.
    @raise Invalid_argument when a name is bound to different kinds. *)

val to_json : t -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {count,
    sum, mean, min, max}}}] with names sorted for stable output. *)

val rows : t -> string list list
(** [[name; kind; value]] rows for {!Util.Text_table}, sorted by name.
    Histograms render as ["n=.. mean=.. min=.. max=.."]. *)
