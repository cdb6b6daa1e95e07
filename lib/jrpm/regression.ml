type verdict = Pass | Warn | Fail

type tolerance = { warn_pct : float; fail_pct : float }

let default_tolerance = { warn_pct = 2.0; fail_pct = 5.0 }

type field_diff = {
  field : string;
  baseline : string;
  current : string;
  delta_pct : float option;
  field_verdict : verdict;
}

type workload_diff = Matched of field_diff list | Added | Removed

type t = { workloads : (string * workload_diff) list; worst : verdict }

let verdict_rank = function Pass -> 0 | Warn -> 1 | Fail -> 2
let verdict_max a b = if verdict_rank a >= verdict_rank b then a else b
let string_of_verdict = function Pass -> "pass" | Warn -> "warn" | Fail -> "FAIL"

(* ---------------- per-field classification ---------------- *)

(* [=] on floats is IEEE equality, under which a NaN field would never
   equal itself; a baseline round-tripped through JSON must compare
   equal to the run it was written from, so NaN matches NaN here. *)
let float_same a b = a = b || (Float.is_nan a && Float.is_nan b)

let exact_field field render equal base cur =
  {
    field;
    baseline = render base;
    current = render cur;
    delta_pct = None;
    field_verdict = (if equal base cur then Pass else Fail);
  }

(* Relative field: percentage delta against the baseline magnitude,
   inclusive thresholds. Zero and non-finite baselines admit no
   meaningful relative delta and degrade to exact comparison. *)
let relative_field field render base cur =
  if float_same base cur then
    { field; baseline = render base; current = render cur;
      delta_pct = (if Float.is_finite base && base <> 0. then Some 0. else None);
      field_verdict = Pass }
  else if base = 0. || not (Float.is_finite base) then
    { field; baseline = render base; current = render cur;
      delta_pct = None; field_verdict = Fail }
  else
    let delta = (cur -. base) /. Float.abs base *. 100. in
    let mag = Float.abs delta in
    let v =
      if mag <= default_tolerance.warn_pct then Pass
      else if mag <= default_tolerance.fail_pct then Warn
      else Fail
    in
    { field; baseline = render base; current = render cur;
      delta_pct = Some delta; field_verdict = v }

let render_int = string_of_int
let render_bool = string_of_bool
let render_float f = Printf.sprintf "%.4g" f
let rel_int field b c =
  relative_field field
    (fun f -> string_of_int (int_of_float f))
    (float_of_int b) (float_of_int c)

let summary_diffs (b : Report_summary.t) (c : Report_summary.t) =
  let anno prefix (ba : Report_summary.anno_summary)
      (ca : Report_summary.anno_summary) =
    [
      rel_int (prefix ^ ".cycles") ba.Report_summary.cycles
        ca.Report_summary.cycles;
      relative_field (prefix ^ ".slowdown") render_float
        ba.Report_summary.slowdown ca.Report_summary.slowdown;
      rel_int (prefix ^ ".locals_cycles") ba.Report_summary.locals_cycles
        ca.Report_summary.locals_cycles;
      rel_int
        (prefix ^ ".read_stats_cycles")
        ba.Report_summary.read_stats_cycles ca.Report_summary.read_stats_cycles;
      rel_int
        (prefix ^ ".loop_anno_cycles")
        ba.Report_summary.loop_anno_cycles ca.Report_summary.loop_anno_cycles;
    ]
  in
  [
    rel_int "plain_cycles" b.Report_summary.plain_cycles
      c.Report_summary.plain_cycles;
    rel_int "tls_cycles" b.Report_summary.tls_cycles
      c.Report_summary.tls_cycles;
    relative_field "actual_speedup" render_float
      b.Report_summary.actual_speedup c.Report_summary.actual_speedup;
    relative_field "predicted_speedup" render_float
      b.Report_summary.predicted_speedup c.Report_summary.predicted_speedup;
    exact_field "selected_stls" render_int Int.equal
      b.Report_summary.selected_stls c.Report_summary.selected_stls;
    exact_field "outputs_match" render_bool Bool.equal
      b.Report_summary.outputs_match c.Report_summary.outputs_match;
    exact_field "loop_count" render_int Int.equal b.Report_summary.loop_count
      c.Report_summary.loop_count;
    exact_field "max_static_depth" render_int Int.equal
      b.Report_summary.max_static_depth c.Report_summary.max_static_depth;
    exact_field "max_dynamic_depth" render_int Int.equal
      b.Report_summary.max_dynamic_depth c.Report_summary.max_dynamic_depth;
    exact_field "threads_committed" render_int Int.equal
      b.Report_summary.threads_committed c.Report_summary.threads_committed;
    exact_field "violations" render_int Int.equal b.Report_summary.violations
      c.Report_summary.violations;
    exact_field "overflow_stalls" render_int Int.equal
      b.Report_summary.overflow_stalls c.Report_summary.overflow_stalls;
    exact_field "forwarded_loads" render_int Int.equal
      b.Report_summary.forwarded_loads c.Report_summary.forwarded_loads;
  ]
  @ anno "base" b.Report_summary.base c.Report_summary.base
  @ anno "opt" b.Report_summary.opt c.Report_summary.opt

(* ---------------- pairing by workload name ---------------- *)

let diff ~baseline ~current () =
  let name (s : Report_summary.t) = s.Report_summary.name in
  let find l n = List.find_opt (fun s -> name s = n) l in
  (* Summaries produced under different hardware configs are expected
     to differ everywhere; fail-classifying every field would report
     spurious "drift". Refuse the comparison up front instead. *)
  List.iter
    (fun b ->
      match find current (name b) with
      | Some c
        when b.Report_summary.config_fingerprint
             <> c.Report_summary.config_fingerprint ->
          failwith
            (Printf.sprintf
               "Jrpm.Regression.diff: hardware config mismatch on workload %s \
                (baseline fingerprint %s, current %s) — the baseline was \
                produced under a different hardware config; regenerate it or \
                compare against a baseline keyed to this config"
               (name b)
               b.Report_summary.config_fingerprint
               c.Report_summary.config_fingerprint)
      | _ -> ())
    baseline;
  let matched_and_removed =
    List.map
      (fun b ->
        match find current (name b) with
        | Some c -> (name b, Matched (summary_diffs b c))
        | None -> (name b, Removed))
      baseline
  in
  let added =
    List.filter_map
      (fun c ->
        match find baseline (name c) with
        | Some _ -> None
        | None -> Some (name c, Added))
      current
  in
  let workloads = matched_and_removed @ added in
  let worst =
    List.fold_left
      (fun acc (_, w) ->
        match w with
        | Added | Removed -> Fail
        | Matched fields ->
            List.fold_left
              (fun acc f -> verdict_max acc f.field_verdict)
              acc fields)
      Pass workloads
  in
  { workloads; worst }

let failed t = t.worst = Fail

(* ---------------- rendering ---------------- *)

let table_rows t =
  List.concat_map
    (fun (name, w) ->
      match w with
      | Added -> [ [ name; "(workload)"; "-"; "present"; "-"; "FAIL: added" ] ]
      | Removed ->
          [ [ name; "(workload)"; "present"; "-"; "-"; "FAIL: removed" ] ]
      | Matched fields ->
          List.filter_map
            (fun f ->
              if f.field_verdict = Pass then None
              else
                Some
                  [
                    name;
                    f.field;
                    f.baseline;
                    f.current;
                    (match f.delta_pct with
                    | Some d -> Printf.sprintf "%+.2f%%" d
                    | None -> "-");
                    string_of_verdict f.field_verdict;
                  ])
            fields)
    t.workloads

let summary_line t =
  let count v =
    List.fold_left
      (fun acc (_, w) ->
        match w with
        | Added | Removed -> if v = Fail then acc + 1 else acc
        | Matched fields ->
            acc
            + List.length
                (List.filter (fun f -> f.field_verdict = v) fields))
      0 t.workloads
  in
  Printf.sprintf
    "regression check: %d workload(s), %d field fail(s), %d warn(s) \
     (tolerance: warn %.4g%%, fail %.4g%%) -> %s\n"
    (List.length t.workloads) (count Fail) (count Warn)
    default_tolerance.warn_pct default_tolerance.fail_pct
    (string_of_verdict t.worst)

let render t =
  let rows = table_rows t in
  let table =
    if rows = [] then ""
    else
      Util.Text_table.render
        ~aligns:Util.Text_table.[ Left; Left; Right; Right; Right; Left ]
        ~header:[ "Benchmark"; "Field"; "Baseline"; "Current"; "Delta"; "Verdict" ]
        rows
  in
  table ^ summary_line t

(* ---------------- baseline files ---------------- *)

let load_baseline path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      failwith (Printf.sprintf "cannot read baseline %s: %s" path msg)
  in
  let json =
    try Obs.Json.parse_exn contents
    with Failure msg ->
      failwith (Printf.sprintf "baseline %s: %s" path msg)
  in
  match Obs.Json.to_list json with
  | None -> failwith (Printf.sprintf "baseline %s: not a JSON array" path)
  | Some entries -> (
      try List.map Report_summary.of_json entries
      with Failure msg ->
        failwith (Printf.sprintf "baseline %s: %s" path msg))
