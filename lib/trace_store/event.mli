(** The annotation-event vocabulary of a trace, as plain data.

    One constructor per {!Hydra.Trace.sink} callback — the exact event
    stream the sequential interpreter reports to the TEST tracer
    (paper Table 4 plus the heap/local access taps). The capture sink
    ({!Writer.sink}) serializes these; the replay reader decodes them
    and {!apply}s each one to a live sink, so a replayed tracer sees a
    stream indistinguishable from interpretation.

    The writer/reader hot paths never build values of this type (they
    encode and decode straight from the sink callbacks); it exists for
    tests, the format spec's worked examples, and [jrpm trace info]. *)

type t =
  | Sloop of { stl : int; nlocals : int; frame : int; now : int }
  | Eoi of { stl : int; now : int }
  | Eloop of { stl : int; now : int }
  | Read_stats of { stl : int; now : int }
  | Heap_load of { addr : int; pc : int; now : int }
  | Heap_store of { addr : int; now : int }
  | Local_load of { frame : int; slot : int; pc : int; now : int }
  | Local_store of { frame : int; slot : int; now : int }
  | Call of { callee : int; now : int }
  | Return of { now : int }

val apply : Hydra.Trace.sink -> t -> unit
(** Deliver one event to a sink — the replay side of the capture/replay
    pair; [apply sink] of every captured event in order reproduces the
    original interpretation's sink-call sequence exactly. *)

val handler : (t -> unit) -> Hydra.Trace.sink
(** A sink that reifies each callback into a value of this type and
    hands it to the function — the inverse of {!apply}
    ([apply s (… what handler f saw …)] replays onto [s]). *)

val collector : unit -> Hydra.Trace.sink * (unit -> t list)
(** A {!handler} that records every event, and a function returning
    them in arrival order — the test harness's decoder target, making
    encode∘decode = id checkable as plain list equality. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** One-line rendering ([sloop stl=3 nlocals=2 frame=1 @120]) for test
    failure messages and [jrpm trace info] samples. *)
