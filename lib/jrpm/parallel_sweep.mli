(** The benchmark's name for {!Daemon.sweep}. [perfbench/main.ml] still
    calls [run] (with {!Scheduler.map_stats} and {!Explore.run}); the
    benchmark change of ROADMAP item 2 moves it to {!Daemon.sweep} and
    deletes this module with them. *)

type outcome = Daemon.outcome

val run :
  ?jobs:int ->
  ?observe:bool ->
  ?capture:bool ->
  ?workloads:Workloads.Workload.t list ->
  unit ->
  outcome list
(** [Daemon.sweep ~jobs ?capture ?observe workloads]; [jobs] defaults
    to {!Scheduler.default_jobs}, [workloads] to the whole registry. *)
