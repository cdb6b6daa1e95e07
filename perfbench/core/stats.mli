(** Order statistics over timing samples, nearest-rank definition: the
    [pct]-th percentile of [n] samples is the sample at 1-based rank
    [ceil (pct * n / 100)] of the sorted list, so it is always a
    measured value, never an interpolation. *)

val rank : n:int -> pct:int -> int
(** 1-based rank of the [pct]-th percentile among [n] samples.
    @raise Invalid_argument when [n <= 0] or [pct] is outside 1..100. *)

val percentile : float array -> pct:int -> float
(** @raise Invalid_argument on an empty array. *)

val beyond : n:int -> pct:int -> int
(** Samples strictly past the [pct]-th percentile's rank — how many
    measurements the reported tail value rests on. A p99 needs
    [n >= 1000] for ten samples beyond it. *)

val median : float array -> float
val mean : float array -> float
