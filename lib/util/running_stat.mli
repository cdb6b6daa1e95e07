(** Streaming accumulator for count / sum / min / max / mean of a series. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val sum : t -> float
val mean : t -> float
(** Mean of added values; [0.] when empty. *)

val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val reset : t -> unit

val merge : t -> t -> unit
(** [merge t other] folds [other]'s samples into [t] (count/sum add,
    min/max widen); [other] is unchanged. The result is exactly the
    accumulator that would have seen both sample streams. *)
