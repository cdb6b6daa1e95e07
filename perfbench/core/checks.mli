(** Output checks, made in the same run as the timing. Every workload
    compares its outputs with the checked-in sweep baseline
    ([test/baseline_sweep_summaries.json]); a wrong output is a failed
    operation in the {!Tally}. *)

val find_baseline : Jrpm.Report_summary.t list -> string -> Jrpm.Report_summary.t option
(** The baseline entry of that workload name. *)

val sweep :
  Tally.t -> baseline:Jrpm.Report_summary.t list -> Jrpm.Report_summary.t list -> unit
(** One attempt per workload of the {!Jrpm.Regression.diff} of a sweep
    against the baseline: a workload fails when any field fails the
    diff, when it is missing or extra, or when its speculative output
    differs from the sequential one. *)

val explore :
  Tally.t ->
  baseline:Jrpm.Report_summary.t list ->
  points:int ->
  records:int ->
  Jrpm.Explore.t ->
  unit
(** One attempt for the matrix shape ([points] config points of
    [records] cells each), and one per baseline workload: its
    default-machine summary must equal the baseline entry byte for
    byte. *)

val serve_ok :
  baseline:Jrpm.Report_summary.t list ->
  Jrpm.Daemon.request ->
  Jrpm.Daemon.response ->
  bool
(** A daemon response is right when it is [ok] and: for [replay], the
    daemon reports [matches] and the replayed summary equals the
    baseline entry; for [explore], the default point's summary equals
    the baseline entry; for [profile], the summary equals the baseline
    entry. *)
