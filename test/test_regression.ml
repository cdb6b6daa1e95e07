(* The benchmark-regression gate: per-field classification under the
   fixed tolerance (threshold edges, zero and non-finite baselines,
   added/removed workloads), the non-finite JSON codec fixes it depends
   on, and the headline guarantee — a sweep diffed against itself is
   clean at any worker count. *)

module R = Jrpm.Regression
module RS = Jrpm.Report_summary

let anno c =
  {
    RS.cycles = c;
    slowdown = 1.25;
    locals_cycles = 10;
    read_stats_cycles = 20;
    loop_anno_cycles = 30;
  }

let mk ?(plain = 100) ?(tls = 100) ?(actual = 2.0) ?(predicted = 2.5)
    ?(outputs = true) ?(violations = 1) name =
  {
    RS.name;
    config_fingerprint = Hydra.Config.default_fingerprint;
    plain_cycles = plain;
    base = anno 110;
    opt = anno 105;
    tls_cycles = tls;
    actual_speedup = actual;
    predicted_speedup = predicted;
    selected_stls = 2;
    outputs_match = outputs;
    loop_count = 3;
    max_static_depth = 1;
    max_dynamic_depth = 2;
    threads_committed = 10;
    violations;
    overflow_stalls = 0;
    forwarded_loads = 4;
  }

let field_of d name field =
  match List.assoc name d.R.workloads with
  | R.Matched fields -> (
      match List.find_opt (fun f -> f.R.field = field) fields with
      | Some f -> f
      | None -> Alcotest.failf "field %s not compared" field)
  | R.Added | R.Removed -> Alcotest.failf "workload %s not matched" name
  | exception Not_found -> Alcotest.failf "workload %s missing from diff" name

let verdict = Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with R.Pass -> "pass" | R.Warn -> "warn" | R.Fail -> "fail"))
    ( = )

let diff1 b c = R.diff ~baseline:[ b ] ~current:[ c ] ()

(* ---------------- tolerance classification edges ---------------- *)

(* default tolerance: warn above 2%, fail above 5% — both inclusive *)
let test_threshold_edges () =
  let check expect cur =
    let d = diff1 (mk "w") (mk ~plain:cur "w") in
    Alcotest.check verdict
      (Printf.sprintf "plain_cycles 100 -> %d" cur)
      expect
      (field_of d "w" "plain_cycles").R.field_verdict
  in
  check R.Pass 100;
  (* exactly at the warn threshold still passes *)
  check R.Pass 102;
  check R.Pass 98;
  check R.Warn 103;
  (* exactly at the fail threshold still only warns *)
  check R.Warn 105;
  check R.Warn 95;
  check R.Fail 106;
  check R.Fail 94;
  (* the signed delta is reported *)
  let d = diff1 (mk "w") (mk ~plain:94 "w") in
  match (field_of d "w" "plain_cycles").R.delta_pct with
  | Some p -> Alcotest.(check (float 1e-9)) "signed delta" (-6.) p
  | None -> Alcotest.fail "relative field lost its delta"

let test_zero_baseline () =
  (* no meaningful relative delta against 0: equal passes, any change
     fails outright (never a warn) *)
  let d = diff1 (mk ~plain:0 "w") (mk ~plain:0 "w") in
  Alcotest.check verdict "0 -> 0 passes" R.Pass
    (field_of d "w" "plain_cycles").R.field_verdict;
  let d = diff1 (mk ~plain:0 "w") (mk ~plain:7 "w") in
  let f = field_of d "w" "plain_cycles" in
  Alcotest.check verdict "0 -> 7 fails" R.Fail f.R.field_verdict;
  Alcotest.(check bool) "no percentage against zero" true (f.R.delta_pct = None)

let test_exact_fields () =
  let d = diff1 (mk "w") (mk ~outputs:false ~violations:2 "w") in
  Alcotest.check verdict "outputs_match is exact" R.Fail
    (field_of d "w" "outputs_match").R.field_verdict;
  Alcotest.check verdict "violations is exact (no 2% grace)" R.Fail
    (field_of d "w" "violations").R.field_verdict;
  Alcotest.(check bool) "diff failed" true (R.failed d);
  (* identical summaries are entirely clean *)
  let d = diff1 (mk "w") (mk "w") in
  Alcotest.check verdict "self-diff passes" R.Pass d.R.worst;
  Alcotest.(check int) "no rows rendered for a clean diff" 0
    (List.length (R.table_rows d))

let test_added_removed () =
  let d =
    R.diff
      ~baseline:[ mk "kept"; mk "dropped" ]
      ~current:[ mk "kept"; mk "grown" ]
      ()
  in
  Alcotest.(check bool) "removed workload reported" true
    (List.assoc "dropped" d.R.workloads = R.Removed);
  Alcotest.(check bool) "added workload reported" true
    (List.assoc "grown" d.R.workloads = R.Added);
  Alcotest.check verdict "membership change is a failure" R.Fail d.R.worst;
  (* both directions appear in the rendered table *)
  let rendered = R.render d in
  Alcotest.(check bool) "table names the added workload" true
    (String.length rendered > 0
    && List.exists (fun row -> List.hd row = "grown") (R.table_rows d));
  Alcotest.(check bool) "table names the removed workload" true
    (List.exists (fun row -> List.hd row = "dropped") (R.table_rows d))

(* ---------------- config fingerprint gate ---------------- *)

let test_fingerprint_mismatch () =
  (* a baseline recorded under a different hardware config must be
     refused outright, not fail-classified field by field *)
  let other =
    Hydra.Config.fingerprint { Hydra.Config.default with num_cpus = 8 }
  in
  let stale = { (mk "w") with RS.config_fingerprint = other } in
  (match diff1 stale (mk "w") with
  | (_ : R.t) -> Alcotest.fail "mismatched fingerprints were diffed"
  | exception Failure msg ->
      Alcotest.(check bool) "error names the workload" true
        (let contains s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s
             && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         contains msg "w" && contains msg other
         && contains msg Hydra.Config.default_fingerprint));
  (* matched fingerprints — even non-default ones — diff normally *)
  let d =
    diff1 stale { (mk ~plain:103 "w") with RS.config_fingerprint = other }
  in
  Alcotest.check verdict "same non-default fingerprint diffs" R.Warn d.R.worst;
  (* an unmatched workload's fingerprint is irrelevant *)
  let d = R.diff ~baseline:[ stale ] ~current:[ mk "other" ] () in
  Alcotest.check verdict "membership change still reported" R.Fail d.R.worst

(* ---------------- non-finite float codec ---------------- *)

let reparse s = RS.of_json (Obs.Json.parse_exn (Obs.Json.to_string (RS.to_json s)))

let test_nonfinite_roundtrip () =
  let s =
    {
      (mk "weird") with
      RS.actual_speedup = Float.nan;
      predicted_speedup = Float.infinity;
      base = { (anno 110) with RS.slowdown = Float.neg_infinity };
    }
  in
  let s' = reparse s in
  Alcotest.(check bool) "NaN survives the round trip" true
    (Float.is_nan s'.RS.actual_speedup);
  Alcotest.(check (float 0.)) "+inf survives" Float.infinity
    s'.RS.predicted_speedup;
  Alcotest.(check (float 0.)) "-inf survives" Float.neg_infinity
    s'.RS.base.RS.slowdown;
  (* and the regression gate treats the reloaded record as unchanged *)
  let d = diff1 s s' in
  Alcotest.check verdict "NaN baseline matches NaN current" R.Pass d.R.worst;
  (* a NaN that becomes finite is a failure, not a silent pass *)
  let d = diff1 s { s' with RS.actual_speedup = 2.0 } in
  Alcotest.check verdict "NaN -> finite fails" R.Fail
    (field_of d "weird" "actual_speedup").R.field_verdict

let test_json_nonfinite_encoding () =
  Alcotest.(check string) "NaN prints as a string" "\"NaN\""
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "+inf prints as a string" "\"Infinity\""
    (Obs.Json.to_string (Obs.Json.Float Float.infinity));
  Alcotest.(check string) "-inf prints as a string" "\"-Infinity\""
    (Obs.Json.to_string (Obs.Json.Float Float.neg_infinity));
  let via_float j =
    match Obs.Json.to_float j with
    | Some f -> f
    | None -> Alcotest.fail "to_float rejected a non-finite encoding"
  in
  Alcotest.(check bool) "to_float String NaN" true
    (Float.is_nan (via_float (Obs.Json.String "NaN")));
  Alcotest.(check (float 0.)) "to_float String Infinity" Float.infinity
    (via_float (Obs.Json.String "Infinity"));
  Alcotest.(check (float 0.)) "to_float String -Infinity" Float.neg_infinity
    (via_float (Obs.Json.String "-Infinity"));
  (* legacy dumps wrote null for non-finite floats *)
  Alcotest.(check bool) "to_float Null is nan" true
    (Float.is_nan (via_float Obs.Json.Null));
  Alcotest.(check bool) "arbitrary strings are not floats" true
    (Obs.Json.to_float (Obs.Json.String "fast") = None)

let test_to_int_bounds () =
  Alcotest.(check (option int)) "small integral float" (Some 4)
    (Obs.Json.to_int (Obs.Json.Float 4.));
  Alcotest.(check (option int)) "negative integral float" (Some (-1024))
    (Obs.Json.to_int (Obs.Json.Float (-1024.)));
  Alcotest.(check (option int)) "1e300 is out of int range" None
    (Obs.Json.to_int (Obs.Json.Float 1e300));
  Alcotest.(check (option int)) "-1e300 is out of int range" None
    (Obs.Json.to_int (Obs.Json.Float (-1e300)));
  Alcotest.(check (option int)) "2^62 is past max_int" None
    (Obs.Json.to_int (Obs.Json.Float (Float.ldexp 1. 62)));
  Alcotest.(check (option int)) "-2^62 is exactly min_int" (Some min_int)
    (Obs.Json.to_int (Obs.Json.Float (-.Float.ldexp 1. 62)));
  Alcotest.(check (option int)) "NaN is not an int" None
    (Obs.Json.to_int (Obs.Json.Float Float.nan));
  Alcotest.(check (option int)) "fractional floats are not ints" None
    (Obs.Json.to_int (Obs.Json.Float 4.5))

(* ---------------- sweep vs. itself ---------------- *)

let tiny name body =
  Workloads.Workload.v name Workloads.Workload.Integer
    ("regression-test workload " ^ name)
    1
    (fun _ -> body)

let workloads =
  [
    tiny "r-fill"
      {|
int[] a;
def main() {
  a = new int[300];
  for (int i = 0; i < 300; i = i + 1) { a[i] = (i * 5 + 2) % 89; }
  print_int(a[299]);
}
|};
    tiny "r-chain"
      {|
int[] a;
def main() {
  a = new int[250];
  a[0] = 3;
  for (int i = 1; i < 250; i = i + 1) { a[i] = (a[i-1] * 7 + i) % 997; }
  print_int(a[249]);
}
|};
    tiny "r-sum"
      {|
int[] a;
def main() {
  a = new int[400];
  int s = 0;
  for (int i = 0; i < 400; i = i + 1) { a[i] = i * 3 % 101; }
  for (int j = 0; j < 400; j = j + 1) { s = s + a[j]; }
  print_int(s);
}
|};
  ]

let summaries ~jobs =
  List.map
    (fun (o : Jrpm.Daemon.outcome) -> o.Jrpm.Daemon.summary)
    (Jrpm.Daemon.sweep ~jobs workloads)

let test_sweep_vs_self () =
  let baseline = summaries ~jobs:1 in
  (* the baseline must survive its own file format *)
  let reloaded =
    match
      Obs.Json.to_list
        (Obs.Json.parse_exn
           (Obs.Json.to_string
              (Obs.Json.List (List.map RS.to_json baseline))))
    with
    | Some entries -> List.map RS.of_json entries
    | None -> Alcotest.fail "baseline did not serialize to an array"
  in
  List.iter
    (fun jobs ->
      let d =
        R.diff ~baseline:reloaded ~current:(summaries ~jobs) ()
      in
      Alcotest.check verdict
        (Printf.sprintf "sweep vs self is clean at --jobs %d" jobs)
        R.Pass d.R.worst;
      Alcotest.(check int)
        (Printf.sprintf "zero diff rows at --jobs %d" jobs)
        0
        (List.length (R.table_rows d)))
    [ 1; 3 ]

(* ---------------- the checked-in baseline ---------------- *)

(* Keep the committed baseline honest: it must parse, cover exactly the
   registry, and keep registry order, so the CI gate diff is 1:1. (All
   26 values are enforced by CI's sweep `cmp`, five by sweep.golden —
   runtest should not pay for a full 26-workload sweep.) *)
let test_checked_in_baseline () =
  let base = R.load_baseline "baseline_sweep_summaries.json" in
  Alcotest.(check (list string))
    "baseline covers the registry in order"
    (List.map
       (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name)
       Workloads.Registry.all)
    (List.map (fun (s : RS.t) -> s.RS.name) base)

let suites =
  [
    ( "regression.classify",
      [
        Alcotest.test_case "tolerance threshold edges" `Quick
          test_threshold_edges;
        Alcotest.test_case "zero baselines" `Quick test_zero_baseline;
        Alcotest.test_case "exact fields" `Quick test_exact_fields;
        Alcotest.test_case "added/removed workloads" `Quick test_added_removed;
        Alcotest.test_case "config fingerprint mismatch refused" `Quick
          test_fingerprint_mismatch;
      ] );
    ( "regression.codec",
      [
        Alcotest.test_case "non-finite summary round-trip" `Quick
          test_nonfinite_roundtrip;
        Alcotest.test_case "JSON non-finite encoding" `Quick
          test_json_nonfinite_encoding;
        Alcotest.test_case "to_int bound checks" `Quick test_to_int_bounds;
      ] );
    ( "regression.sweep",
      [
        Alcotest.test_case "sweep vs self is clean at any jobs" `Quick
          test_sweep_vs_self;
        Alcotest.test_case "checked-in baseline covers the registry" `Quick
          test_checked_in_baseline;
      ] );
  ]
