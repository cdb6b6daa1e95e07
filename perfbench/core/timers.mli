(** Summed wall-clock seconds per name, kept by the traced run around
    its calls into each layer. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] and adds its duration to [name], also
    when [f] raises. *)

val total : t -> string -> float
(** Seconds summed under [name]; [0.] if nothing was timed under it. *)
