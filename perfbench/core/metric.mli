(** Metric names, the declared metric set, and the result line.

    The metric set a run must print is whatever [BENCHMARK.json]
    declares — [end_to_end] for an untraced run, [per_layer] for a
    traced one — so the file and the program cannot drift apart: a
    missing, extra or misnamed metric, or one with another unit, fails
    the run instead of printing a result. *)

type t = { name : string; unit_ : string; value : float }

val valid_name : string -> bool
(** 1 to 64 characters from letters, digits, [_], [.] and [-], starting
    with a letter or digit. *)

val valid_unit : string -> bool
(** 1 to 16 characters from letters, digits, [_], [/], [%], [.], [-]. *)

type spec = {
  end_to_end : (string * string) list;  (** (name, unit), file order *)
  per_layer : (string * string) list;
}

val load_spec : string -> spec
(** Read and parse a [BENCHMARK.json].
    @raise Sys_error / [Failure] on an unreadable or malformed file, or
    when a section or a name/unit field is missing. *)

val validate : declared:(string * string) list -> t list -> (unit, string) result
(** [Ok] iff every metric has a valid name and unit, is finite, is
    reported once, and the reported (name, unit) set equals [declared]. *)

val result_line : declared:(string * string) list -> tally:Tally.t -> t list -> string
(** The run's final stdout line:
    [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}]
    with metrics in declared order.
    @raise Invalid_argument when {!validate} rejects the metrics. *)
