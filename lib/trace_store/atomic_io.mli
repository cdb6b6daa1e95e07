(** Atomic whole-file writes (trace containers, JSON outputs).

    [write ~path f] opens [path ^ ".tmp"], hands the channel to [f],
    then flushes, fsyncs, and [Unix.rename]s the temp file over
    [path]. Readers racing the writer see either the complete old file
    or the complete new one; a crash mid-write leaves the target
    untouched (the stale [.tmp] is removed on the next successful
    write of the same path). If [f] raises, the temp file is removed
    and the exception re-raised — the target is never modified. *)

val write : path:string -> (out_channel -> unit) -> unit

val write_string : path:string -> string -> unit
(** [write] specialised to one [output_string]. *)

val tmp_path : string -> string
(** The staging path used for [path] ([path ^ ".tmp"]) — exposed for
    tests asserting no staging litter survives. *)
