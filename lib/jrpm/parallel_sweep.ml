type outcome = {
  workload : Workloads.Workload.t;
  report : Pipeline.report;
  summary : Report_summary.t;
  recorder : Obs.Recorder.t option;
  trace : string option;
}

let core_count = Scheduler.core_count

let default_jobs () =
  match Sys.getenv_opt "JRPM_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | Some _ | None ->
          (* an invalid override must not silently change the worker
             count — behave as if unset, but say so *)
          Printf.eprintf
            "jrpm: ignoring invalid JRPM_JOBS=%S (expected a positive \
             integer); using the core count\n%!"
            s;
          core_count ())
  | None -> core_count ()

(* One scheduler task per workload. The outcome itself is the result:
   the scheduler Marshals it back (workers are forks of this executable)
   and slots it by workload index, so outcomes come back in registry
   order whatever the completion order was. *)
let outcome ~observe ~capture (w : Workloads.Workload.t) =
  let recorder = if observe then Some (Obs.Recorder.create ()) else None in
  let obs =
    match recorder with
    | Some rc -> Obs.Recorder.sink rc
    | None -> Obs.Sink.null
  in
  let name = w.Workloads.Workload.name in
  let src = Workloads.Registry.default_source w in
  let report, trace =
    if capture then
      let report, record = Replay.capture_run ~obs ~name src in
      (report, Some record)
    else (Pipeline.run ~obs ~name src, None)
  in
  (match recorder with
  | Some rc -> Pipeline.record_report_metrics (Obs.Recorder.metrics rc) report
  | None -> ());
  {
    workload = w;
    report;
    summary = Report_summary.of_report report;
    recorder;
    trace;
  }

let run ?jobs ?(observe = false) ?(capture = false)
    ?(workloads = Workloads.Registry.all) () =
  let jobs = match jobs with Some n -> n | None -> default_jobs () in
  Scheduler.map ~jobs
    ~label:(fun _ w -> "workload " ^ w.Workloads.Workload.name)
    (fun _ w -> outcome ~observe ~capture w)
    workloads

let container outcomes =
  let records = List.filter_map (fun o -> o.trace) outcomes in
  if records = [] then None else Some (Trace_store.Writer.container records)

let merged_recorder outcomes =
  let merged = Obs.Recorder.create () in
  let any = ref false in
  List.iter
    (fun o ->
      match o.recorder with
      | Some rc ->
          any := true;
          Obs.Recorder.merge merged rc
      | None -> ())
    outcomes;
  if !any then Some merged else None
