(* Tests of the benchmark's own code: order statistics, failure
   accounting, metric validation, the seeded serve mix, and the output
   checks — including that a wrong expected output is counted as a
   failure. *)

open Perfbench
module RS = Jrpm.Report_summary

let baseline = lazy (Jrpm.Regression.load_baseline "../../test/baseline_sweep_summaries.json")
let spec = lazy (Metric.load_spec "../../BENCHMARK.json")

(* ---------------- Stats ---------------- *)

let test_percentile () =
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.)) "p50 of 1..1000" 500. (Stats.percentile xs ~pct:50);
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Stats.percentile xs ~pct:99);
  Alcotest.(check (float 0.)) "p100 is the max" 1000. (Stats.percentile xs ~pct:100);
  Alcotest.(check (float 0.)) "median of 3" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "p99 of one sample" 7. (Stats.percentile [| 7. |] ~pct:99);
  Alcotest.(check (float 0.)) "p50 of two is the lower" 1. (Stats.percentile [| 2.; 1. |] ~pct:50);
  Alcotest.(check (float 1e-12)) "mean" 2. (Stats.mean [| 1.; 2.; 3. |])

let test_beyond () =
  Alcotest.(check int) "ten samples past p99 of 1000" 10 (Stats.beyond ~n:1000 ~pct:99);
  Alcotest.(check int) "one past p99 of 100" 1 (Stats.beyond ~n:100 ~pct:99);
  Alcotest.(check int) "none past p99 of 99" 0 (Stats.beyond ~n:99 ~pct:99);
  Alcotest.(check int) "half past p50 of 26" 13 (Stats.beyond ~n:26 ~pct:50);
  Alcotest.(check int) "rank of p99 of 1001" 991 (Stats.rank ~n:1001 ~pct:99);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.percentile [||] ~pct:50));
  Alcotest.check_raises "pct 0" (Invalid_argument "Stats.rank: pct outside 1..100") (fun () ->
      ignore (Stats.rank ~n:10 ~pct:0))

(* ---------------- Tally ---------------- *)

let test_tally () =
  let t = Tally.create () in
  Alcotest.(check (float 0.)) "nothing attempted counts as failed" 1. (Tally.failed_ratio t);
  Alcotest.(check bool) "nothing attempted is not correct" false (Tally.correct t);
  Tally.check t ~what:"a" true;
  Tally.check t ~what:"b" false;
  Tally.check t ~what:"c" true;
  Tally.check t ~what:"d" false;
  Alcotest.(check int) "attempted" 4 t.Tally.attempted;
  Alcotest.(check int) "failed" 2 t.Tally.failed;
  Alcotest.(check (float 1e-12)) "failed_ratio" 0.5 (Tally.failed_ratio t);
  Alcotest.(check (float 1e-12)) "ok_ratio" 0.5 (Tally.ok_ratio t);
  Alcotest.(check (option string)) "first failure" (Some "b") t.Tally.first_failure;
  Alcotest.(check bool) "not correct" false (Tally.correct t);
  let ok = Tally.create () in
  Tally.check ok ~what:"x" true;
  Alcotest.(check bool) "correct" true (Tally.correct ok);
  Alcotest.(check (float 0.)) "ok_ratio 1" 1. (Tally.ok_ratio ok);
  (* counts from another process's tally *)
  Tally.add ok ~attempted:3 ~failed:1 ~first_failure:(Some "y");
  Alcotest.(check int) "added attempts" 4 ok.Tally.attempted;
  Alcotest.(check int) "added failures" 1 ok.Tally.failed;
  Alcotest.(check (option string)) "their first failure" (Some "y") ok.Tally.first_failure;
  Tally.add t ~attempted:1 ~failed:1 ~first_failure:(Some "z");
  Alcotest.(check (option string)) "an earlier first failure stays" (Some "b") t.Tally.first_failure

(* ---------------- Metric ---------------- *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (Metric.valid_name n))
    [ "setup_s"; "p99_ms"; "hydra.tls_s"; "trace_store.bytes_per_event"; "9lives"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Metric.valid_name n))
    [ ""; "_x"; ".x"; "has space"; "a/b"; String.make 65 'a'; "é" ];
  List.iter
    (fun u -> Alcotest.(check bool) ("unit " ^ u) true (Metric.valid_unit u))
    [ "s"; "ms"; "1/s"; "count"; "%"; "Mcycles/s"; "B/ev" ];
  List.iter
    (fun u -> Alcotest.(check bool) ("bad unit " ^ u) false (Metric.valid_unit u))
    [ ""; "req per s"; String.make 17 's' ]

let declared = [ ("a_s", "s"); ("b_ms", "ms") ]
let m name unit_ value = { Metric.name; unit_; value }
let is_error = function Ok () -> false | Error _ -> true

let test_validate () =
  Alcotest.(check bool) "exact set" false
    (is_error (Metric.validate ~declared [ m "b_ms" "ms" 2.; m "a_s" "s" 1. ]));
  Alcotest.(check bool) "missing" true (is_error (Metric.validate ~declared [ m "a_s" "s" 1. ]));
  Alcotest.(check bool) "extra" true
    (is_error (Metric.validate ~declared [ m "a_s" "s" 1.; m "b_ms" "ms" 2.; m "c" "s" 3. ]));
  Alcotest.(check bool) "twice" true
    (is_error (Metric.validate ~declared [ m "a_s" "s" 1.; m "a_s" "s" 1.; m "b_ms" "ms" 2. ]));
  Alcotest.(check bool) "wrong unit" true
    (is_error (Metric.validate ~declared [ m "a_s" "ms" 1.; m "b_ms" "ms" 2. ]));
  Alcotest.(check bool) "not finite" true
    (is_error (Metric.validate ~declared [ m "a_s" "s" nan; m "b_ms" "ms" 2. ]))

let test_result_line () =
  let tally = Tally.create () in
  Tally.check tally ~what:"x" true;
  Tally.check tally ~what:"y" false;
  let line = Metric.result_line ~declared ~tally [ m "b_ms" "ms" 2.5; m "a_s" "s" 0.125 ] in
  let json = Obs.Json.parse_exn line in
  let get k = Option.get (Obs.Json.member k json) in
  Alcotest.(check bool) "correct" true (get "correct" = Obs.Json.Bool false);
  Alcotest.(check (option int)) "attempted" (Some 2) (Obs.Json.to_int (get "attempted"));
  Alcotest.(check (option int)) "failed" (Some 1) (Obs.Json.to_int (get "failed"));
  let a = Option.get (Obs.Json.member "a_s" (get "metrics")) in
  Alcotest.(check (option (float 0.))) "value" (Some 0.125)
    (Option.bind (Obs.Json.member "value" a) Obs.Json.to_float);
  Alcotest.check_raises "undeclared metric refused"
    (Invalid_argument "Metric.result_line: metric c is not declared; declared metric b_ms is missing")
    (fun () -> ignore (Metric.result_line ~declared ~tally [ m "a_s" "s" 1.; m "c" "s" 1. ]))

let test_spec () =
  let spec = Lazy.force spec in
  let names l = List.map fst l in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (Metric.valid_name n);
      Alcotest.(check bool) ("unit " ^ u) true (Metric.valid_unit u))
    (spec.Metric.end_to_end @ spec.Metric.per_layer);
  List.iter
    (fun n -> Alcotest.(check bool) ("declares " ^ n) true (List.mem n (names spec.Metric.end_to_end)))
    [ "setup_s"; "wall_s"; "p50_ms"; "p99_ms"; "requests_per_s"; "peak_rss_mb"; "ok_ratio" ];
  Alcotest.(check (option string)) "setup_s unit" (Some "s") (List.assoc_opt "setup_s" spec.Metric.end_to_end)

(* ---------------- Mix ---------------- *)

let containers = Array.init 12 (fun i -> (Printf.sprintf "c%02d.jtrc" i, Printf.sprintf "w%d" i))
let programs = [| "FourierTest"; "monteCarlo"; "fft" |]

let render reqs =
  Array.to_list
    (Array.mapi
       (fun i req -> Obs.Json.to_string (Jrpm.Daemon.request_to_json { id = Obs.Json.Int i; req }))
       reqs)

let test_mix_deterministic () =
  let a = Mix.requests ~seed:42 ~containers ~programs 500 in
  let b = Mix.requests ~seed:42 ~containers ~programs 500 in
  Alcotest.(check (list string)) "same seed, same sequence" (render a) (render b);
  let c = Mix.requests ~seed:43 ~containers ~programs 500 in
  Alcotest.(check bool) "another seed, another sequence" false (render a = render c);
  let prefix = Mix.requests ~seed:42 ~containers ~programs 100 in
  Alcotest.(check (list string)) "a shorter run is a prefix"
    (render prefix) (List.filteri (fun i _ -> i < 100) (render a))

let test_mix_shares () =
  let reqs = Mix.requests ~seed:7 ~containers ~programs 3_000 in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 reqs in
  let replay = count (function Jrpm.Daemon.Replay _ -> true | _ -> false) in
  let explore = count (function Jrpm.Daemon.Explore _ -> true | _ -> false) in
  let profile = count (function Jrpm.Daemon.Profile _ -> true | _ -> false) in
  Alcotest.(check (list int)) "80% replay, 10% explore, 10% profile" [ 2_400; 300; 300 ]
    [ replay; explore; profile ];
  let block = Array.sub reqs 0 30 in
  List.iter
    (fun (path, _) ->
      let n =
        Array.fold_left
          (fun n r -> match r with Jrpm.Daemon.Replay { path = p; _ } when p = path -> n + 1 | _ -> n)
          0 block
      in
      Alcotest.(check int) ("each block replays " ^ path ^ " twice") 2 n)
    (Array.to_list containers);
  let explored = Array.sub reqs 0 120 in
  List.iter
    (fun (path, _) ->
      let n =
        Array.fold_left
          (fun n r -> match r with Jrpm.Daemon.Explore { path = p; _ } when p = path -> n + 1 | _ -> n)
          0 explored
      in
      Alcotest.(check int) ("four blocks explore " ^ path ^ " once") 1 n)
    (Array.to_list containers);
  Alcotest.check_raises "no programs" (Invalid_argument "Mix.requests: no containers or no programs")
    (fun () -> ignore (Mix.requests ~seed:1 ~containers ~programs:[||] 1))

(* ---------------- Checks ---------------- *)

let small = "FourierTest"

let small_summary =
  lazy
    (let w = Workloads.Registry.find_exn small in
     RS.of_report (Jrpm.Pipeline.run ~name:small (Workloads.Registry.default_source w)))

let small_baseline () =
  List.filter (fun (b : RS.t) -> b.RS.name = small) (Lazy.force baseline)

(* the deliberately wrong expected output: one more selected STL, a
   field every check compares exactly *)
let wrong_baseline () =
  List.map (fun (b : RS.t) -> { b with RS.selected_stls = b.RS.selected_stls + 1 }) (small_baseline ())

let test_sweep_check () =
  let ok = Tally.create () in
  Checks.sweep ok ~baseline:(small_baseline ()) [ Lazy.force small_summary ];
  Alcotest.(check int) "right output passes" 0 ok.Tally.failed;
  Alcotest.(check int) "one attempt per workload" 1 ok.Tally.attempted;
  let bad = Tally.create () in
  Checks.sweep bad ~baseline:(wrong_baseline ()) [ Lazy.force small_summary ];
  Alcotest.(check int) "wrong expected output fails" 1 bad.Tally.failed;
  Alcotest.(check bool) "failed_ratio non-zero" true (Tally.failed_ratio bad > 0.);
  let drift = Tally.create () in
  Checks.sweep drift
    ~baseline:(List.map (fun (b : RS.t) -> { b with RS.tls_cycles = b.RS.tls_cycles + 1 }) (small_baseline ()))
    [ Lazy.force small_summary ];
  Alcotest.(check int) "cycle drift inside the regression tolerance passes" 0 drift.Tally.failed;
  let missing = Tally.create () in
  Checks.sweep missing ~baseline:(small_baseline ()) [];
  Alcotest.(check int) "a missing workload fails" 1 missing.Tally.failed

let response rsp =
  { Jrpm.Daemon.rsp_id = Obs.Json.Int 0; rsp; elapsed_s = 0.01; queue_depth = 0; tasks = 1 }

let test_serve_check () =
  let summary = RS.to_json (Lazy.force small_summary) in
  let profile = Jrpm.Daemon.Profile small in
  let ok = response (Ok (Obs.Json.Obj [ ("summary", summary) ])) in
  Alcotest.(check bool) "profile right" true (Checks.serve_ok ~baseline:(small_baseline ()) profile ok);
  Alcotest.(check bool) "profile against a wrong expected output" false
    (Checks.serve_ok ~baseline:(wrong_baseline ()) profile ok);
  Alcotest.(check bool) "error response" false
    (Checks.serve_ok ~baseline:(small_baseline ()) profile (response (Error "boom")));
  let replay = Jrpm.Daemon.Replay { path = "x.jtrc"; record = Some small } in
  let replayed matches =
    response
      (Ok (Obs.Json.Obj [ ("matches", Obs.Json.Bool matches); ("summaries", Obs.Json.List [ summary ]) ]))
  in
  Alcotest.(check bool) "replay right" true
    (Checks.serve_ok ~baseline:(small_baseline ()) replay (replayed true));
  Alcotest.(check bool) "replay without matches" false
    (Checks.serve_ok ~baseline:(small_baseline ()) replay (replayed false));
  let tally = Tally.create () in
  List.iter
    (fun r -> Tally.check tally ~what:"serve" (Checks.serve_ok ~baseline:(wrong_baseline ()) replay r))
    [ replayed true; replayed true ];
  Alcotest.(check (float 0.)) "every reply wrong against a wrong expected output" 1.
    (Tally.failed_ratio tally)

let test_explore_check () =
  let w = Workloads.Registry.find_exn small in
  let _, record = Jrpm.Replay.capture_run ~name:small (Workloads.Registry.default_source w) in
  let path = "explore_check.jtrc" in
  Trace_store.Writer.to_file ~path [ record ];
  let t = Jrpm.Explore.run ~jobs:1 ~grid:[ "cpus=8" ] ~path () in
  Sys.remove path;
  let ok = Tally.create () in
  Checks.explore ok ~baseline:(small_baseline ()) ~points:2 ~records:1 t;
  Alcotest.(check int) "shape + one default summary" 2 ok.Tally.attempted;
  Alcotest.(check int) "right output passes" 0 ok.Tally.failed;
  let bad = Tally.create () in
  Checks.explore bad ~baseline:(wrong_baseline ()) ~points:2 ~records:1 t;
  Alcotest.(check int) "wrong expected output fails" 1 bad.Tally.failed;
  let shape = Tally.create () in
  Checks.explore shape ~baseline:(small_baseline ()) ~points:9 ~records:1 t;
  Alcotest.(check int) "wrong shape fails" 1 shape.Tally.failed

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "samples beyond" `Quick test_beyond ] );
      ("tally", [ Alcotest.test_case "failed_ratio accounting" `Quick test_tally ]);
      ( "metric",
        [ Alcotest.test_case "names and units" `Quick test_names;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "BENCHMARK.json" `Quick test_spec ] );
      ( "mix",
        [ Alcotest.test_case "seed determines the sequence" `Quick test_mix_deterministic;
          Alcotest.test_case "shares" `Quick test_mix_shares ] );
      ( "checks",
        [ Alcotest.test_case "sweep" `Quick test_sweep_check;
          Alcotest.test_case "serve" `Quick test_serve_check;
          Alcotest.test_case "explore" `Quick test_explore_check ] );
    ]
