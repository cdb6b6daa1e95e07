(* The parallel benchmark sweep: the report-summary and recorder JSON
   codecs the worker protocol rides on, Metrics/Recorder merge
   semantics, and the headline guarantee — an N-worker forked sweep
   produces exactly the sequential sweep's results and metrics. *)

let tiny name body =
  Workloads.Workload.v name Workloads.Workload.Integer
    ("sweep-test workload " ^ name)
    1
    (fun _ -> body)

(* small but non-trivial: each exercises the tracer and TLS sim *)
let w_fib =
  tiny "t-fib"
    {|
int[] a;
def main() {
  a = new int[300];
  a[0] = 1; a[1] = 1;
  for (int i = 2; i < 300; i = i + 1) { a[i] = (a[i-1] + a[i-2]) % 997; }
  print_int(a[299]);
}
|}

let w_sum =
  tiny "t-sum"
    {|
int[] a;
def main() {
  a = new int[400];
  int s = 0;
  for (int i = 0; i < 400; i = i + 1) { a[i] = i * 3 % 101; }
  for (int j = 0; j < 400; j = j + 1) { s = s + a[j]; }
  print_int(s);
}
|}

let w_scale =
  tiny "t-scale"
    {|
int[] a;
def main() {
  a = new int[350];
  for (int i = 0; i < 350; i = i + 1) { a[i] = (i * 7 + 3) % 97; }
  for (int j = 0; j < 350; j = j + 1) { a[j] = a[j] * 2 + 1; }
  print_int(a[349]);
}
|}

let workloads = [ w_fib; w_sum; w_scale ]

(* ---------------- report-summary codec ---------------- *)

let test_summary_roundtrip () =
  let outcomes = Jrpm.Parallel_sweep.run ~jobs:1 ~workloads ~observe:false () in
  List.iter
    (fun (o : Jrpm.Parallel_sweep.outcome) ->
      let s = o.Jrpm.Parallel_sweep.summary in
      Alcotest.(check bool)
        ("summary derives from report: " ^ s.Jrpm.Report_summary.name)
        true
        (s = Jrpm.Report_summary.of_report o.Jrpm.Parallel_sweep.report);
      let json = Jrpm.Report_summary.to_json s in
      let reparsed =
        Jrpm.Report_summary.of_json
          (Obs.Json.parse_exn (Obs.Json.to_string json))
      in
      Alcotest.(check bool)
        ("summary JSON round-trips exactly: " ^ s.Jrpm.Report_summary.name)
        true (s = reparsed))
    outcomes

(* ---------------- metrics merge + codec ---------------- *)

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr a "c" ~by:3;
  Obs.Metrics.incr b "c" ~by:4;
  Obs.Metrics.incr b "only_b";
  Obs.Metrics.set_gauge a "g" 1.5;
  Obs.Metrics.set_gauge b "g" 2.5;
  Obs.Metrics.observe a "h" 10.;
  Obs.Metrics.observe b "h" 2.;
  Obs.Metrics.observe b "h" 30.;
  Obs.Metrics.merge a b;
  Alcotest.(check int) "counters add" 7 (Obs.Metrics.counter a "c");
  Alcotest.(check int) "new counters appear" 1 (Obs.Metrics.counter a "only_b");
  Alcotest.(check (option (float 0.))) "gauge takes merged-in value"
    (Some 2.5) (Obs.Metrics.gauge a "g");
  (match Obs.Metrics.histogram a "h" with
  | None -> Alcotest.fail "histogram lost in merge"
  | Some rs ->
      Alcotest.(check int) "histogram count" 3 (Util.Running_stat.count rs);
      Alcotest.(check (float 1e-9)) "histogram sum" 42.
        (Util.Running_stat.sum rs);
      Alcotest.(check (float 1e-9)) "histogram max" 30.
        (Util.Running_stat.max rs));
  (* b is unchanged *)
  Alcotest.(check int) "source untouched" 4 (Obs.Metrics.counter b "c");
  (* kind clashes are rejected *)
  let c = Obs.Metrics.create () in
  Obs.Metrics.set_gauge c "c" 9.;
  Alcotest.check_raises "kind clash on merge"
    (Invalid_argument "Obs.Metrics: c is a gauge, not a counter") (fun () ->
      Obs.Metrics.merge c a)

(* The metrics dump is read by people and by [jrpm]'s JSON consumers,
   not decoded back: pin the document itself. *)
let test_metrics_json_document () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "events.x" ~by:17;
  Obs.Metrics.set_gauge m "run.speedup" 3.25;
  Obs.Metrics.observe m "phase.s" 0.125;
  Obs.Metrics.observe m "phase.s" 4.5;
  Obs.Metrics.incr m "zero" ~by:0;
  Alcotest.(check string) "metrics JSON document"
    "{\"counters\":{\"events.x\":17,\"zero\":0},\"gauges\":{\"run.speedup\":3.25},\
     \"histograms\":{\"phase.s\":{\"count\":2,\"sum\":4.625,\"mean\":2.3125,\
     \"min\":0.125,\"max\":4.5}}}"
    (Obs.Json.to_string (Obs.Metrics.to_json m))

(* ---------------- recorder merge + codec ---------------- *)

let feed rc events =
  let sink = Obs.Recorder.sink rc in
  List.iter (Obs.Sink.emit sink) events

let test_recorder_merge () =
  let a = Obs.Recorder.create ~max_events:3 () in
  let b = Obs.Recorder.create () in
  feed a [ Obs.Event.Bank_alloc { stl = 0; now = 1 } ];
  Obs.Sink.phase (Obs.Recorder.sink a) "p" (fun () -> ());
  feed b
    [
      Obs.Event.Bank_starved { stl = 1; now = 2 };
      Obs.Event.Tls_commit { rank = 0; now = 9 };
    ];
  Obs.Sink.phase (Obs.Recorder.sink b) "p" (fun () -> ());
  Obs.Recorder.merge a b;
  let m = Obs.Recorder.metrics a in
  Alcotest.(check int) "event counters add" 1
    (Obs.Metrics.counter m "events.bank_alloc");
  Alcotest.(check int) "merged event counters add" 1
    (Obs.Metrics.counter m "events.bank_starved");
  (* a held 3 of its own events (alloc + phase pair); b's 4 arrive but
     only the log bound's worth are kept, the rest count as dropped *)
  Alcotest.(check int) "log still capped" 3
    (List.length (Obs.Recorder.events a));
  Alcotest.(check int) "overflow counted as dropped" 4
    (Obs.Recorder.dropped_events a);
  (* phase spans accumulate across recorders *)
  (match Obs.Recorder.phase_spans a with
  | [ ("p", 2, _) ] -> ()
  | other ->
      Alcotest.failf "unexpected phase spans (%d entries)" (List.length other));
  (* counters were NOT double-bumped by the appended raw events *)
  Alcotest.(check int) "phase_end counted once per recorder" 2
    (Obs.Metrics.counter m "events.phase_end")

let test_recorder_json_document () =
  let rc = Obs.Recorder.create ~max_events:8 () in
  feed rc
    [
      Obs.Event.Phase_begin { phase = "alpha"; at_s = 0.5 };
      Obs.Event.Bank_alloc { stl = 2; now = 5 };
      Obs.Event.Arc_found { stl = 2; bin = Obs.Event.Prev; len = 8; pc = 3 };
      Obs.Event.Arc_found { stl = 2; bin = Obs.Event.Earlier; len = 20; pc = 4 };
      Obs.Event.Overflow { stl = 2; ld_lines = 5; st_lines = 1; now = 30 };
      Obs.Event.Decision
        {
          stl = 2;
          est_speedup = 1.5;
          spec_time = 100.;
          nested_time = 140.;
          overflow_freq = 0.;
          crit_prev_freq = 0.5;
          crit_prev_len = 8.;
          avg_thread_size = 16.;
          chosen = true;
        };
      Obs.Event.Tls_violation { rank = 1; now = 44 };
      Obs.Event.Phase_end { phase = "alpha"; at_s = 0.75; span_s = 0.25 };
      Obs.Event.Tls_sync_stall { pc = 9; now = 45 };
    ];
  Obs.Metrics.set_gauge (Obs.Recorder.metrics rc) "run.x" 2.5;
  let json = Obs.Recorder.to_json rc in
  let section name =
    match Obs.Json.member name json with
    | Some j -> Obs.Json.to_string j
    | None -> Alcotest.failf "recorder dump has no %s" name
  in
  Alcotest.(check string) "schema_version" "1" (section "schema_version");
  (* every event counter is present, fired or not *)
  Alcotest.(check string) "metrics"
    "{\"counters\":{\"events.arc_found_earlier\":1,\"events.arc_found_prev\":1,\
     \"events.bank_alloc\":1,\"events.bank_release\":0,\"events.bank_starved\":0,\
     \"events.decision\":1,\"events.overflow\":1,\"events.phase_begin\":1,\
     \"events.phase_end\":1,\"events.tls_commit\":0,\"events.tls_overflow_stall\":0,\
     \"events.tls_sync_stall\":1,\"events.tls_violation\":1},\
     \"gauges\":{\"run.x\":2.5},\"histograms\":{\"phase.alpha.seconds\":\
     {\"count\":1,\"sum\":0.25,\"mean\":0.25,\"min\":0.25,\"max\":0.25}}}"
    (section "metrics");
  Alcotest.(check string) "phases"
    "[{\"phase\":\"alpha\",\"spans\":1,\"total_s\":0.25}]" (section "phases");
  Alcotest.(check string) "events"
    "[{\"event\":\"phase_begin\",\"phase\":\"alpha\",\"at_s\":0.5},\
     {\"event\":\"bank_alloc\",\"stl\":2,\"now\":5},\
     {\"event\":\"arc_found_prev\",\"stl\":2,\"len\":8,\"pc\":3},\
     {\"event\":\"arc_found_earlier\",\"stl\":2,\"len\":20,\"pc\":4},\
     {\"event\":\"overflow\",\"stl\":2,\"ld_lines\":5,\"st_lines\":1,\"now\":30},\
     {\"event\":\"decision\",\"stl\":2,\"est_speedup\":1.5,\"spec_time\":100.0,\
     \"nested_time\":140.0,\"overflow_freq\":0.0,\"crit_prev_freq\":0.5,\
     \"crit_prev_len\":8.0,\"avg_thread_size\":16.0,\"chosen\":true},\
     {\"event\":\"tls_violation\",\"rank\":1,\"now\":44},\
     {\"event\":\"phase_end\",\"phase\":\"alpha\",\"at_s\":0.75,\"span_s\":0.25}]"
    (section "events");
  (* the ninth event is past [max_events]: counted, not kept *)
  Alcotest.(check string) "dropped_events" "1" (section "dropped_events")

(* ---------------- the headline guarantee ---------------- *)

let event_labels rc = List.map Obs.Event.label (Obs.Recorder.events rc)

let histogram_shape m =
  match Obs.Json.member "histograms" (Obs.Metrics.to_json m) with
  | Some (Obs.Json.Obj fields) ->
      List.map
        (fun (name, h) ->
          (name, Option.bind (Obs.Json.member "count" h) Obs.Json.to_int))
        fields
  | _ -> []

let section m name = Obs.Json.member name (Obs.Metrics.to_json m)

let test_parallel_equals_sequential () =
  let seq = Jrpm.Parallel_sweep.run ~jobs:1 ~workloads ~observe:true () in
  let par = Jrpm.Parallel_sweep.run ~jobs:2 ~workloads ~observe:true () in
  Alcotest.(check int) "same workload count" (List.length seq)
    (List.length par);
  List.iter2
    (fun (s : Jrpm.Parallel_sweep.outcome) (p : Jrpm.Parallel_sweep.outcome) ->
      let name = s.Jrpm.Parallel_sweep.summary.Jrpm.Report_summary.name in
      Alcotest.(check bool) ("registry order preserved: " ^ name) true
        (name = p.Jrpm.Parallel_sweep.summary.Jrpm.Report_summary.name);
      Alcotest.(check bool) ("summaries identical: " ^ name) true
        (s.Jrpm.Parallel_sweep.summary = p.Jrpm.Parallel_sweep.summary);
      (* the full report crossed the process boundary intact *)
      Alcotest.(check bool) ("report outputs identical: " ^ name) true
        (List.for_all2 Ir.Value.equal
           s.Jrpm.Parallel_sweep.report.Jrpm.Pipeline.plain_output
           p.Jrpm.Parallel_sweep.report.Jrpm.Pipeline.plain_output);
      Alcotest.(check int) ("report stats identical: " ^ name)
        (List.length s.Jrpm.Parallel_sweep.report.Jrpm.Pipeline.stats)
        (List.length p.Jrpm.Parallel_sweep.report.Jrpm.Pipeline.stats))
    seq par;
  let rc_seq = Option.get (Jrpm.Parallel_sweep.merged_recorder seq) in
  let rc_par = Option.get (Jrpm.Parallel_sweep.merged_recorder par) in
  let ms = Obs.Recorder.metrics rc_seq and mp = Obs.Recorder.metrics rc_par in
  (* every deterministic metric agrees; only wall-clock histogram sums
     may differ between the two runs *)
  Alcotest.(check bool) "merged counters identical" true
    (section ms "counters" = section mp "counters");
  Alcotest.(check bool) "merged gauges identical" true
    (section ms "gauges" = section mp "gauges");
  Alcotest.(check bool) "merged histogram shapes identical" true
    (histogram_shape ms = histogram_shape mp);
  Alcotest.(check bool) "merged phase span counts identical" true
    (List.map (fun (n, c, _) -> (n, c)) (Obs.Recorder.phase_spans rc_seq)
    = List.map (fun (n, c, _) -> (n, c)) (Obs.Recorder.phase_spans rc_par));
  Alcotest.(check bool) "merged event sequences identical" true
    (event_labels rc_seq = event_labels rc_par);
  Alcotest.(check int) "no drops in either merge"
    (Obs.Recorder.dropped_events rc_seq)
    (Obs.Recorder.dropped_events rc_par)

(* ---------------- golden summaries ---------------- *)

(* A real-workload sweep must produce Report_summary JSON identical to
   the checked-in sweep pin (test/baseline_sweep_summaries.json, written
   by `jrpm sweep --jobs 1 --summary-json`). A subset of the registry
   keeps the test fast while covering integer, float, and media
   kernels; CI checks all 26 entries with `cmp`. *)
let golden_subset = [ "BitOps"; "Huffman"; "compress"; "fft"; "NeuralNet" ]

(* the pinned summary of workload [name], as JSON text *)
let pinned_json =
  let pin = lazy (Jrpm.Regression.load_baseline "baseline_sweep_summaries.json") in
  fun name ->
    match
      List.find_opt
        (fun (s : Jrpm.Report_summary.t) -> s.Jrpm.Report_summary.name = name)
        (Lazy.force pin)
    with
    | Some s -> Obs.Json.to_string (Jrpm.Report_summary.to_json s)
    | None -> Alcotest.failf "workload %s is not in the sweep pin" name

let test_golden_summaries () =
  let workloads = List.map Workloads.Registry.find_exn golden_subset in
  let outcomes = Jrpm.Parallel_sweep.run ~jobs:1 ~workloads ~observe:false () in
  List.iter
    (fun (o : Jrpm.Parallel_sweep.outcome) ->
      let s = o.Jrpm.Parallel_sweep.summary in
      let name = s.Jrpm.Report_summary.name in
      Alcotest.(check string)
        ("summary JSON matches golden: " ^ name)
        (pinned_json name)
        (Obs.Json.to_string (Jrpm.Report_summary.to_json s)))
    outcomes

(* The cross-jobs determinism contract the work-stealing scheduler must
   uphold: any worker count produces byte-identical summary JSON and a
   byte-identical capture container, for sweeps and for record-sharded
   parallel replay. *)

let test_sweep_jobs_identity () =
  let run jobs =
    let outcomes = Jrpm.Parallel_sweep.run ~jobs ~workloads ~capture:true () in
    let json =
      Obs.Json.to_string
        (Obs.Json.List
           (List.map
              (fun (o : Jrpm.Parallel_sweep.outcome) ->
                Jrpm.Report_summary.to_json o.Jrpm.Parallel_sweep.summary)
              outcomes))
    in
    match Jrpm.Parallel_sweep.container outcomes with
    | Some c -> (json, c)
    | None -> Alcotest.fail "capture sweep produced no container"
  in
  let j1, c1 = run 1 in
  List.iter
    (fun jobs ->
      let j, c = run jobs in
      Alcotest.(check string)
        (Printf.sprintf "summary JSON identical at jobs=%d" jobs)
        j1 j;
      Alcotest.(check bool)
        (Printf.sprintf "capture container byte-identical at jobs=%d" jobs)
        true (c = c1))
    [ 4; 16 ]

let test_replay_jobs_identity () =
  let outcomes = Jrpm.Parallel_sweep.run ~jobs:1 ~workloads ~capture:true () in
  let container =
    match Jrpm.Parallel_sweep.container outcomes with
    | Some c -> c
    | None -> Alcotest.fail "capture sweep produced no container"
  in
  let path = Filename.temp_file "jrpm_replay_jobs" ".jtrc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc container;
      close_out oc;
      let json jobs =
        match
          Obs.Json.member "summaries"
            (Jrpm.Daemon.execute ~jobs
               (Jrpm.Daemon.Replay { path; record = None }))
        with
        | Some summaries -> Obs.Json.to_string summaries
        | None -> Alcotest.fail "replay result has no summaries"
      in
      let j1 = json 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "replayed summary JSON identical at jobs=%d" jobs)
            j1 (json jobs))
        [ 4; 16 ])

let test_worker_failure_surfaces () =
  let bad = tiny "t-bad" "def main( { this does not parse" in
  match
    Jrpm.Parallel_sweep.run ~jobs:2 ~workloads:[ w_sum; bad ] ~observe:false ()
  with
  | _ -> Alcotest.fail "sweep over a broken workload should fail"
  | exception Failure msg ->
      Alcotest.(check bool) "failure names the worker error" true
        (String.length msg > 0)

let suites =
  [
    ( "sweep.codec",
      [
        Alcotest.test_case "report summary JSON round-trip" `Quick
          test_summary_roundtrip;
        Alcotest.test_case "metrics JSON document" `Quick
          test_metrics_json_document;
        Alcotest.test_case "recorder JSON document" `Quick
          test_recorder_json_document;
      ] );
    ( "sweep.merge",
      [
        Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
        Alcotest.test_case "recorder merge" `Quick test_recorder_merge;
      ] );
    ( "sweep.parallel",
      [
        Alcotest.test_case "forked sweep equals sequential" `Quick
          test_parallel_equals_sequential;
        Alcotest.test_case "sweep byte-identical at jobs 1/4/16" `Quick
          test_sweep_jobs_identity;
        Alcotest.test_case "replay byte-identical at jobs 1/4/16" `Quick
          test_replay_jobs_identity;
        Alcotest.test_case "worker failure surfaces" `Quick
          test_worker_failure_surfaces;
      ] );
    ( "sweep.golden",
      [
        Alcotest.test_case "summaries match pre-rewrite golden" `Quick
          test_golden_summaries;
      ] );
  ]
