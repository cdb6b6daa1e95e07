(** Failure accounting: every checked output is one attempt; a wrong
    output, an error response, or an exception is one failure. *)

type t = private {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
      (** [what] of the first failed check, for the diagnostic line *)
}

val create : unit -> t

val check : t -> what:string -> bool -> unit
(** Count one attempt, and one failure unless the output was right. *)

val add : t -> attempted:int -> failed:int -> first_failure:string option -> unit
(** Count the attempts and failures of another tally, such as one kept
    in another process; its [first_failure] counts only if [t] has none
    yet. *)

val failed_ratio : t -> float
(** [failed / attempted]; [1.] when nothing was attempted, since a run
    that checked nothing proved nothing. *)

val ok_ratio : t -> float
(** [1 - failed_ratio] — the end-to-end form, never 0 on a healthy run. *)

val correct : t -> bool
(** At least one attempt and no failure. *)
