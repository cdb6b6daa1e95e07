type outcome = Daemon.outcome

let run ?(jobs = Scheduler.default_jobs ()) ?observe ?capture
    ?(workloads = Workloads.Registry.all) () =
  Daemon.sweep ~jobs ?capture ?observe workloads
