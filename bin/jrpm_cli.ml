(* The jrpm command-line driver.

   Subcommands mirror the Jrpm life cycle (paper Fig. 1):
     jrpm run FILE        compile and run a Javelin program sequentially
     jrpm profile FILE    run under TEST tracing; print per-STL statistics
     jrpm deps FILE       extended-TEST dependency profile per STL
     jrpm auto FILE       the whole cycle: trace, select, recompile, TLS run
     jrpm bench NAME      run a bundled benchmark through the whole cycle
     jrpm sweep           run every bundled benchmark, fanned out over cores
     jrpm trace record    capture profiling event streams into a container file
     jrpm trace replay    re-derive analysis results from a capture, no re-run
     jrpm trace info      describe a container without replaying the analysis
     jrpm explore FILE    sweep a hardware-config grid over a captured trace
     jrpm list            list bundled benchmarks *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_frontend_errors f =
  try f () with
  | Ir.Lexer.Error (msg, pos) ->
      Printf.eprintf "lexical error (%s): %s\n"
        (Format.asprintf "%a" Ir.Ast.pp_pos pos)
        msg;
      exit 1
  | Ir.Parser.Error (msg, pos) ->
      Printf.eprintf "syntax error (%s): %s\n"
        (Format.asprintf "%a" Ir.Ast.pp_pos pos)
        msg;
      exit 1
  | Ir.Typecheck.Error (msg, pos) ->
      Printf.eprintf "type error (%s): %s\n"
        (Format.asprintf "%a" Ir.Ast.pp_pos pos)
        msg;
      exit 1
  | Hydra.Machine.Trap msg ->
      Printf.eprintf "runtime trap: %s\n" msg;
      exit 2
  | Hydra.Machine.Out_of_fuel n ->
      Printf.eprintf "runtime trap: out of fuel after %d instructions\n" n;
      exit 2

(* ---------------- arguments ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Javelin source file")

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"benchmark name")

let size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "size"; "n" ] ~docv:"N" ~doc:"dataset scale (default: benchmark default)")

let banks_arg =
  Arg.(
    value
    & opt int Hydra.Config.default.comparator_banks
    & info [ "banks" ] ~docv:"N" ~doc:"number of TEST comparator banks")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print per-STL detail")

let sync_arg =
  Arg.(
    value & flag
    & info [ "sync" ]
        ~doc:
          "enable learned synchronization in the TLS hardware (delays \
           previously-violating loads instead of restarting)")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"print a per-phase wall-clock timing table on stderr")

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:
          "write the full observability dump (pipeline phase spans, metrics, \
           tracer/analyzer/TLS events) as JSON to $(docv)")

(* the --banks flag is a one-axis override of the hardware point; the
   full grid lives in `jrpm explore` *)
let hw_of_banks banks =
  try Hydra.Config.validate { Hydra.Config.default with comparator_banks = banks }
  with Invalid_argument msg ->
    Printf.eprintf "jrpm: %s\n" msg;
    exit 2

(* a worker count must be a positive integer: `--jobs 0` is a user
   error, not a request for the default *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "%d is not a positive worker count" n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* resolved here, once: an unset --jobs means JRPM_JOBS or the core
   count (Scheduler.default_jobs, which warns on a bad JRPM_JOBS) *)
let jobs_arg =
  Term.(
    const (function
      | Some n -> n
      | None -> Jrpm.Scheduler.default_jobs ())
    $ Arg.(
        value
        & opt (some positive_int) None
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "number of worker processes (default: core count; 1 = run \
               sequentially in-process; must be positive)"))

(* Every file the CLI writes goes through one atomic path (temp + fsync
   + rename), so a crash mid-write never leaves a truncated container or
   JSON file where a good one stood. *)
let write_file ~what ~file bytes =
  let fail msg =
    Printf.eprintf "jrpm: cannot write %s: %s\n" what msg;
    exit 1
  in
  try Trace_store.Atomic_io.write_string ~path:file bytes with
  | Sys_error msg -> fail msg
  | Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)

(* every JSON file the CLI writes: pretty-printed, newline-terminated *)
let write_json_file ~what file json =
  write_file ~what ~file (Obs.Json.to_string ~pretty:true json ^ "\n")

let prerr_phase_table rc =
  prerr_string
    (Util.Text_table.render
       ~aligns:Util.Text_table.[ Left; Right; Right; Right ]
       ~header:[ "phase"; "spans"; "seconds"; "share" ]
       (Obs.Recorder.phase_rows rc))

(* Run the full pipeline under an optional observability recorder and
   emit the requested --profile / --profile-json outputs. *)
let run_observed ~profile ~profile_json ~banks ~sync ~name src =
  let recorder =
    if profile || profile_json <> None then Some (Obs.Recorder.create ())
    else None
  in
  let obs =
    match recorder with
    | Some rc -> Obs.Recorder.sink rc
    | None -> Obs.Sink.null
  in
  let hw = hw_of_banks banks in
  let r = Jrpm.Pipeline.run ~hw ~sync ~obs ~name src in
  (match recorder with
  | None -> ()
  | Some rc ->
      Jrpm.Pipeline.record_report_metrics (Obs.Recorder.metrics rc) r;
      if profile then begin
        prerr_phase_table rc;
        (* transistor estimate of the machine this run actually modelled
           (comparator banks and CPU count from the active config, not
           the compile-time defaults) *)
        let hc = Hydra.Hardware_cost.estimate ~config:hw () in
        Printf.eprintf
          "transistor estimate (%s): %d total, TEST structures %.2f%%\n"
          (Hydra.Config.label hw) hc.Hydra.Hardware_cost.grand_total
          (100. *. Hydra.Hardware_cost.test_fraction hc);
        (* tracer cache health: history lost to the finite buffers *)
        let m = Obs.Recorder.metrics rc in
        prerr_string
          (Util.Text_table.render
             ~aligns:Util.Text_table.[ Left; Right ]
             ~header:[ "tracer cache health"; "count" ]
             (List.map
                (fun g ->
                  [
                    g;
                    (match Obs.Metrics.gauge m g with
                    | Some v -> Printf.sprintf "%.0f" v
                    | None -> "-");
                  ])
                [
                  "tracer.heap_fifo_evictions"; "tracer.local_ts_evictions";
                  "tracer.ld_dedup_conflicts"; "tracer.st_dedup_conflicts";
                ]))
      end;
      Option.iter
        (fun file ->
          write_json_file ~what:"profile JSON" file (Obs.Recorder.to_json rc))
        profile_json);
  r

(* ---------------- run ---------------- *)

let run_cmd =
  let run file =
    with_frontend_errors (fun () ->
        let prog, _ =
          Compiler.Codegen.compile_source ~mode:Compiler.Codegen.Plain
            (read_file file)
        in
        let r = Hydra.Seq_interp.run prog in
        List.iter
          (fun v -> print_endline (Ir.Value.to_string v))
          r.Hydra.Seq_interp.output;
        Printf.printf "[%d cycles, %d instructions]\n" r.Hydra.Seq_interp.cycles
          r.Hydra.Seq_interp.instructions)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"compile and run a Javelin program sequentially")
    Term.(const run $ file_arg)

(* ---------------- profile ---------------- *)

let print_stl_header table stl =
  let s = Compiler.Stl_table.stl_of table stl in
  Printf.printf "STL %d: %s, loop at block L%d (depth %d, height %d)%s\n" stl
    s.Compiler.Stl_table.func_name s.Compiler.Stl_table.header
    s.Compiler.Stl_table.static_depth s.Compiler.Stl_table.height
    (if s.Compiler.Stl_table.traced then "" else "  [filtered: obviously serial]")

let print_stats_table stats estimates =
  Util.Text_table.print
    ~aligns:
      Util.Text_table.[ Right; Right; Right; Right; Right; Right; Right; Right; Right ]
    ~header:
      [
        "STL"; "cycles"; "threads"; "entries"; "T(avg)"; "arc f(t-1)";
        "arc len"; "ovf"; "est speedup";
      ]
    (List.map
       (fun (stl, st) ->
         let e = List.assoc stl estimates in
         [
           string_of_int stl;
           string_of_int st.Test_core.Stats.cycles;
           string_of_int st.Test_core.Stats.threads;
           string_of_int st.Test_core.Stats.entries;
           Printf.sprintf "%.0f" (Test_core.Stats.avg_thread_size st);
           Printf.sprintf "%.2f" (Test_core.Stats.crit_prev_freq st);
           Printf.sprintf "%.0f" (Test_core.Stats.avg_crit_prev_len st);
           Printf.sprintf "%.2f" (Test_core.Stats.overflow_freq st);
           Printf.sprintf "%.2f" e.Test_core.Analyzer.est_speedup;
         ])
       stats)

let profile_cmd =
  let profile file banks =
    with_frontend_errors (fun () ->
        let { Jrpm.Pipeline.tracer; plain_cycles; _ } =
          Jrpm.Pipeline.profile_only ~hw:(hw_of_banks banks) (read_file file)
        in
        let stats = Test_core.Tracer.stats tracer in
        let estimates =
          List.map (fun (stl, s) -> (stl, Test_core.Analyzer.estimate s)) stats
        in
        Printf.printf "sequential cycles: %d\n" plain_cycles;
        Printf.printf "max dynamic STL nesting: %d, untraced activations: %d\n\n"
          (Test_core.Tracer.max_dynamic_depth tracer)
          (Test_core.Tracer.untraced_activations tracer);
        print_stats_table stats estimates)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"run sequentially under TEST tracing and print per-STL statistics")
    Term.(const profile $ file_arg $ banks_arg)

(* ---------------- deps (extended TEST) ---------------- *)

let deps_cmd =
  let deps file banks =
    with_frontend_errors (fun () ->
        let { Jrpm.Pipeline.tracer; table; annotated_program; _ } =
          Jrpm.Pipeline.profile_only ~hw:(hw_of_banks banks) (read_file file)
        in
        let stats = Test_core.Tracer.stats tracer in
        let printed = ref false in
        List.iter
          (fun (stl, st) ->
            let entries =
              Test_core.Dep_profile.of_stats annotated_program st
            in
            if entries <> [] then begin
              printed := true;
              print_stl_header table stl;
              Format.printf "%a@." Test_core.Dep_profile.pp entries
            end)
          stats;
        (* an empty profile says so, unlike a run that traced nothing *)
        if not !printed then
          Printf.printf "no dependency arcs recorded (%d STLs traced)\n"
            (List.length stats))
  in
  Cmd.v
    (Cmd.info "deps"
       ~doc:
         "print the extended-TEST dependency profile (arcs binned by load PC) \
          for guiding optimization")
    Term.(const deps $ file_arg $ banks_arg)

(* ---------------- dump ---------------- *)

let dump_cmd =
  let dump file mode =
    with_frontend_errors (fun () ->
        let src = read_file file in
        let tac = Compiler.Opt.program (Ir.Lower.compile src) in
        let table = Compiler.Stl_table.build tac in
        let mode =
          match mode with
          | "plain" -> Compiler.Codegen.Plain
          | "annotated" -> Compiler.Codegen.Annotated { optimized = true }
          | "base" -> Compiler.Codegen.Annotated { optimized = false }
          | "tls" ->
              let selected =
                Array.to_list table.Compiler.Stl_table.stls
                |> List.filter_map (fun (s : Compiler.Stl_table.stl) ->
                       if s.Compiler.Stl_table.traced then
                         Some s.Compiler.Stl_table.id
                       else None)
              in
              Compiler.Codegen.Tls { selected }
          | m ->
              Printf.eprintf "unknown mode %s (plain|annotated|base|tls)\n" m;
              exit 1
        in
        let prog = Compiler.Codegen.generate ~mode table tac in
        Array.iter
          (fun f -> Format.printf "%a@." Hydra.Native.pp_func f)
          prog.Hydra.Native.funcs;
        List.iter
          (fun (_, (p : Hydra.Native.stl_plan)) ->
            Printf.printf
              "plan stl %d: func #%d body@%d inductors=[%s] reductions=%d \
               globalized=[%s] invariants=%d\n"
              p.Hydra.Native.stl_id p.Hydra.Native.plan_func
              p.Hydra.Native.body_start
              (String.concat ","
                 (List.map
                    (fun (s, st) -> Printf.sprintf "%d%+d" s st)
                    p.Hydra.Native.inductors))
              (List.length p.Hydra.Native.reductions)
              (String.concat ","
                 (List.map
                    (fun (s, a) -> Printf.sprintf "%d@%d" s a)
                    p.Hydra.Native.globalized))
              (List.length p.Hydra.Native.invariants))
          prog.Hydra.Native.stl_plans)
  in
  let mode_arg =
    Arg.(
      value
      & opt string "plain"
      & info [ "mode" ] ~docv:"MODE" ~doc:"plain | annotated | base | tls")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"disassemble the generated native code")
    Term.(const dump $ file_arg $ mode_arg)

(* ---------------- auto / bench ---------------- *)

let print_report verbose (r : Jrpm.Pipeline.report) =
  Printf.printf "== %s ==\n" r.Jrpm.Pipeline.name;
  Printf.printf "sequential:        %d cycles\n" r.Jrpm.Pipeline.plain_cycles;
  Printf.printf "profiling slowdown: base %.1f%%, optimized %.1f%%\n"
    (100. *. (r.Jrpm.Pipeline.base.Jrpm.Pipeline.slowdown -. 1.))
    (100. *. (r.Jrpm.Pipeline.opt.Jrpm.Pipeline.slowdown -. 1.));
  Printf.printf "loops: %d (max dynamic nest %d)\n" r.Jrpm.Pipeline.loop_count
    r.Jrpm.Pipeline.max_dynamic_depth;
  Printf.printf "selected STLs: %d, predicted speedup %.2f\n"
    (List.length r.Jrpm.Pipeline.selection.Test_core.Analyzer.chosen)
    r.Jrpm.Pipeline.selection.Test_core.Analyzer.predicted_speedup;
  List.iter
    (fun (c : Test_core.Analyzer.choice) ->
      let s =
        Compiler.Stl_table.stl_of r.Jrpm.Pipeline.table
          c.Test_core.Analyzer.chosen_stl
      in
      Printf.printf "  - STL %d in %s: coverage %.1f%%, est %.2fx\n"
        c.Test_core.Analyzer.chosen_stl s.Compiler.Stl_table.func_name
        (100. *. c.Test_core.Analyzer.coverage)
        c.Test_core.Analyzer.speedup)
    r.Jrpm.Pipeline.selection.Test_core.Analyzer.chosen;
  Printf.printf "speculative run:   %d cycles, actual speedup %.2f\n"
    r.Jrpm.Pipeline.tls_cycles r.Jrpm.Pipeline.actual_speedup;
  Printf.printf
    "  committed %d threads, %d violations, %d overflow stalls, %d forwards\n"
    r.Jrpm.Pipeline.spec_stats.Hydra.Tls_sim.threads_committed
    r.Jrpm.Pipeline.spec_stats.Hydra.Tls_sim.violations
    r.Jrpm.Pipeline.spec_stats.Hydra.Tls_sim.overflow_stalls
    r.Jrpm.Pipeline.spec_stats.Hydra.Tls_sim.forwarded_loads;
  Printf.printf "outputs match sequential: %b\n" r.Jrpm.Pipeline.outputs_match;
  (match r.Jrpm.Pipeline.method_candidates with
  | [] -> ()
  | cands ->
      print_endline
        "method-return decompositions not covered by loop STLs (Sec 4.1):";
      List.iter
        (fun (c : Test_core.Method_profile.candidate) ->
          Printf.printf "  - %s: %d calls, avg %.0f cycles, %.1f%% uncovered\n"
            c.Test_core.Method_profile.cand_name
            c.Test_core.Method_profile.cand_calls
            c.Test_core.Method_profile.avg_cycles
            (100. *. c.Test_core.Method_profile.uncovered_coverage))
        cands);
  if verbose then begin
    print_newline ();
    print_stats_table r.Jrpm.Pipeline.stats r.Jrpm.Pipeline.estimates
  end

let auto_cmd =
  let auto file banks verbose sync profile profile_json =
    with_frontend_errors (fun () ->
        let r =
          run_observed ~profile ~profile_json ~banks ~sync
            ~name:(Filename.basename file) (read_file file)
        in
        print_report verbose r)
  in
  Cmd.v
    (Cmd.info "auto"
       ~doc:
         "full dynamic parallelization cycle: profile, select STLs, recompile, \
          run speculatively")
    Term.(
      const auto $ file_arg $ banks_arg $ verbose_arg $ sync_arg $ profile_arg
      $ profile_json_arg)

let registered name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown benchmark %s; try `jrpm list`\n" name;
      exit 1

let bench_cmd =
  let bench name size banks verbose sync profile profile_json =
    let w = registered name in
    let n = Option.value ~default:w.Workloads.Workload.default_size size in
    with_frontend_errors (fun () ->
        let r =
          run_observed ~profile ~profile_json ~banks ~sync ~name
            (w.Workloads.Workload.source n)
        in
        print_report verbose r)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"run a bundled benchmark through the whole cycle")
    Term.(
      const bench $ name_arg $ size_arg $ banks_arg $ verbose_arg $ sync_arg
      $ profile_arg $ profile_json_arg)

(* ---------------- result renderers ---------------- *)

(* One renderer per result kind, called by the one-shot command and by
   its `jrpm client` twin on the same result document, so their output
   is identical by construction. *)

let malformed fmt =
  Printf.ksprintf
    (fun detail ->
      Printf.eprintf "jrpm: malformed daemon result (%s)\n" detail;
      exit 1)
    fmt

let write_summaries ~what file summaries =
  write_json_file ~what file
    (Obs.Json.List (List.map Jrpm.Report_summary.to_json summaries))

(* `jrpm sweep` / `jrpm client profile`: stdout is deterministic
   (registry order, simulated cycles only) *)
let print_sweep ~summary_json summaries =
  Util.Text_table.print
    ~aligns:
      Util.Text_table.[ Left; Right; Right; Right; Right; Right; Right; Left ]
    ~header:
      [
        "Benchmark"; "Plain cycles"; "TLS cycles"; "Actual x"; "Pred x";
        "STLs"; "Violations"; "Outputs";
      ]
    (List.map
       (fun (s : Jrpm.Report_summary.t) ->
         [
           s.Jrpm.Report_summary.name;
           string_of_int s.Jrpm.Report_summary.plain_cycles;
           string_of_int s.Jrpm.Report_summary.tls_cycles;
           Printf.sprintf "%.2f" s.Jrpm.Report_summary.actual_speedup;
           Printf.sprintf "%.2f" s.Jrpm.Report_summary.predicted_speedup;
           string_of_int s.Jrpm.Report_summary.selected_stls;
           string_of_int s.Jrpm.Report_summary.violations;
           (if s.Jrpm.Report_summary.outputs_match then "match" else "MISMATCH");
         ])
       summaries);
  Option.iter
    (fun file -> write_summaries ~what:"summary JSON" file summaries)
    summary_json

type replay_row = {
  events : int;
  record_bytes : int;
  reference_bytes : int;
  matches : bool;
  replayed : Jrpm.Report_summary.t;
}

let json_list key json =
  match Obs.Json.member key json with
  | Some (Obs.Json.List l) -> l
  | _ -> malformed "no %s" key

(* The "summaries" of a sweep or replay result document. *)
let result_summaries json =
  List.map
    (fun sj ->
      try Jrpm.Report_summary.of_json sj with Failure msg -> malformed "%s" msg)
    (json_list "summaries" json)

(* The rows of a replay result document (Daemon.replay_result). *)
let replay_rows json =
  let records = json_list "records" json and summaries = result_summaries json in
  if List.length records <> List.length summaries then
    malformed "%d records, %d summaries" (List.length records)
      (List.length summaries);
  List.map2
    (fun rj replayed ->
      let int key =
        match Option.bind (Obs.Json.member key rj) Obs.Json.to_int with
        | Some n -> n
        | None -> malformed "no %s" key
      in
      {
        events = int "events";
        record_bytes = int "record_bytes";
        reference_bytes = int "reference_bytes";
        matches = Obs.Json.member "matches" rj = Some (Obs.Json.Bool true);
        replayed;
      })
    records summaries

(* `jrpm trace replay` / `jrpm client replay`: the table on stdout
   (encoded sizes and re-derived analysis results only), the summaries,
   then exit 1 if any record diverged; [profile] sees the rows first *)
let print_replay ?(profile = ignore) ~summary_json json =
  let rows = replay_rows json in
  Util.Text_table.print
    ~aligns:
      Util.Text_table.[ Left; Right; Right; Right; Right; Right; Right; Left ]
    ~header:
      [
        "Benchmark"; "Events"; "Bytes"; "B/event"; "Ratio"; "Pred x"; "STLs";
        "Replay";
      ]
    (List.map
       (fun r ->
         [
           r.replayed.Jrpm.Report_summary.name;
           string_of_int r.events;
           string_of_int r.record_bytes;
           Printf.sprintf "%.2f"
             (float_of_int r.record_bytes /. float_of_int (max 1 r.events));
           Printf.sprintf "%.1f"
             (float_of_int r.reference_bytes
             /. float_of_int (max 1 r.record_bytes));
           Printf.sprintf "%.2f"
             r.replayed.Jrpm.Report_summary.predicted_speedup;
           string_of_int r.replayed.Jrpm.Report_summary.selected_stls;
           (if r.matches then "match" else "DIVERGED");
         ])
       rows);
  Option.iter
    (fun out ->
      write_summaries ~what:"summary JSON" out
        (List.map (fun r -> r.replayed) rows))
    summary_json;
  profile rows;
  if List.exists (fun r -> not r.matches) rows then begin
    Printf.eprintf
      "jrpm: replayed analysis DIVERGED from the recorded summaries\n";
    exit 1
  end

(* `jrpm explore` / `jrpm client explore` *)
let print_explore ~summary_json ~default_summary_json json =
  let t =
    try Jrpm.Explore.of_json json with Failure msg -> malformed "%s" msg
  in
  print_string (Jrpm.Explore.render t);
  Option.iter
    (fun out -> write_json_file ~what:"explore matrix JSON" out json)
    summary_json;
  Option.iter
    (fun out ->
      write_summaries ~what:"default-point summary JSON" out
        (Jrpm.Explore.default_summaries t))
    default_summary_json

let summary_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary-json" ] ~docv:"FILE"
        ~doc:
          "write every workload's $(b,Report_summary) as a JSON array to \
           $(docv) (the baseline format for benchmark-regression diffing)")

let sweep_cmd =
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "diff this sweep's per-workload summaries against the baseline \
             JSON array in $(docv) (the $(b,--summary-json) format) and exit \
             non-zero if an exact field changes or a cycle count, speedup or \
             slowdown moves by more than 5%")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "capture every workload's optimized profiling event stream and \
             write one trace-store container to $(docv) (replay it with \
             $(b,jrpm trace replay))")
  in
  let sweep jobs profile profile_json summary_json baseline trace =
    (* read the baseline before the (multi-second) sweep so a missing
       or malformed file is diagnosed immediately *)
    let baseline_records =
      Option.map
        (fun file ->
          try Jrpm.Regression.load_baseline file
          with Failure msg ->
            Printf.eprintf "jrpm: %s\n" msg;
            exit 1)
        baseline
    in
    let observe = profile || profile_json <> None in
    let t0 = Unix.gettimeofday () in
    let outcomes =
      with_frontend_errors (fun () ->
          Jrpm.Daemon.sweep ~jobs ~observe ~capture:(trace <> None)
            Workloads.Registry.all)
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    (match (trace, Jrpm.Daemon.container outcomes) with
    | Some file, Some bytes ->
        write_file ~what:"trace container" ~file bytes;
        Printf.eprintf "jrpm: trace container %s: %d workloads, %d bytes\n"
          file (List.length outcomes) (String.length bytes)
    | _ -> ());
    let summaries =
      List.map (fun (o : Jrpm.Daemon.outcome) -> o.Jrpm.Daemon.summary) outcomes
    in
    print_sweep ~summary_json summaries;
    Printf.eprintf "sweep: %d benchmarks, %d jobs, %.2fs wall-clock\n%!"
      (List.length outcomes) jobs wall_s;
    (match Jrpm.Daemon.merged_recorder outcomes with
    | None -> ()
    | Some merged ->
        if profile then prerr_phase_table merged;
        Option.iter
          (fun file ->
            write_json_file ~what:"profile JSON" file
              (Obs.Recorder.to_json merged))
          profile_json);
    (* ----- benchmark-regression gate ----- *)
    match baseline_records with
    | None -> ()
    | Some base ->
        let d =
          (* a fingerprint mismatch means the baseline describes a
             different machine — refuse to fail-classify the drift *)
          try Jrpm.Regression.diff ~baseline:base ~current:summaries ()
          with Failure msg ->
            Printf.eprintf "jrpm: %s\n" msg;
            exit 1
        in
        print_string (Jrpm.Regression.render d);
        if Jrpm.Regression.failed d then exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "run every bundled benchmark through the whole cycle, sharded over \
          worker processes; per-workload recorders are merged into one \
          deterministic aggregate")
    Term.(
      const sweep $ jobs_arg $ profile_arg $ profile_json_arg $ summary_json_arg
      $ baseline_arg $ trace_arg)

(* ---------------- trace: capture once, replay many ---------------- *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"trace container file")

let fail_trace_errors f =
  try f () with
  | Trace_store.Reader.Corrupt msg ->
      Printf.eprintf "jrpm: corrupt trace container: %s\n" msg;
      exit 1
  | Failure msg ->
      Printf.eprintf "jrpm: %s\n" msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "jrpm: %s\n" msg;
      exit 1

let trace_record_cmd =
  let workloads_arg =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"bundled benchmark names to capture (default: all of them)")
  in
  let record file names jobs =
    let workloads =
      if names = [] then Workloads.Registry.all else List.map registered names
    in
    let outcomes =
      with_frontend_errors (fun () ->
          Jrpm.Daemon.sweep ~jobs ~capture:true workloads)
    in
    (* every workload captures a record, so the container exists *)
    let bytes = Option.get (Jrpm.Daemon.container outcomes) in
    write_file ~what:"trace container" ~file bytes;
    Printf.eprintf "jrpm: recorded %d workloads, %d bytes -> %s\n"
      (List.length outcomes) (String.length bytes) file
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "run the pipeline over bundled benchmarks and capture each optimized \
          profiling event stream into one trace-store container")
    Term.(const record $ trace_file_arg $ workloads_arg $ jobs_arg)

let trace_replay_cmd =
  (* replay gauges from the result rows and this command's own wall
     clock, so throughput is events over elapsed time at any --jobs *)
  let print_profile ~profile ~profile_json ~wall_s rows =
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
    let events = sum (fun r -> r.events) in
    let bytes = sum (fun r -> r.record_bytes) in
    let ratio a b = float_of_int a /. float_of_int (max 1 b) in
    let gauges =
      [
        ("trace.records", float_of_int (List.length rows));
        ("trace.events", float_of_int events);
        ("trace.bytes", float_of_int bytes);
        ("trace.bytes_per_event", ratio bytes events);
        ( "trace.compression_ratio",
          ratio (sum (fun r -> r.reference_bytes)) bytes );
        ( "trace.replay_events_per_sec",
          if wall_s > 0. then float_of_int events /. wall_s else 0. );
        ( "trace.replay_matches",
          float_of_int (List.length (List.filter (fun r -> r.matches) rows)) );
      ]
    in
    if profile then
      prerr_string
        (Util.Text_table.render
           ~aligns:Util.Text_table.[ Left; Right ]
           ~header:[ "replay metric"; "value" ]
           (List.map (fun (g, v) -> [ g; Printf.sprintf "%.2f" v ]) gauges));
    Option.iter
      (fun out ->
        let rc = Obs.Recorder.create () in
        List.iter
          (fun (g, v) -> Obs.Metrics.set_gauge (Obs.Recorder.metrics rc) g v)
          gauges;
        write_json_file ~what:"profile JSON" out (Obs.Recorder.to_json rc))
      profile_json
  in
  let replay file summary_json profile profile_json jobs =
    let t0 = Unix.gettimeofday () in
    let result =
      fail_trace_errors (fun () ->
          Jrpm.Daemon.execute ~jobs
            (Jrpm.Daemon.Request (Jrpm.Daemon.Replay { path = file; record = None })))
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    print_replay ~summary_json
      ~profile:(print_profile ~profile ~profile_json ~wall_s)
      result
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "stream a recorded container back through a fresh tracer + analyzer \
          (no re-interpretation) and check the re-derived results against the \
          recorded summaries; records are sharded across decoder workers")
    Term.(
      const replay $ trace_file_arg $ summary_json_arg $ profile_arg
      $ profile_json_arg $ jobs_arg)

let trace_info_cmd =
  let records_arg =
    Arg.(
      value & flag
      & info [ "records" ]
          ~doc:
            "print the per-record index (offset, bytes, events, workload) — \
             the units the sharded parallel decoder fans out — instead of \
             decoding and checksumming every record")
  in
  let print_container_line file =
    let src = Trace_store.Bytesrc.map_file file in
    Printf.printf "container: %d bytes\n" (Trace_store.Bytesrc.length src);
    src
  in
  let print_index file =
    fail_trace_errors (fun () ->
        (* the index walk reads chunk frames only, never an event *)
        let entries = Trace_store.Index.of_src (print_container_line file) in
        Util.Text_table.print
          ~aligns:Util.Text_table.[ Right; Right; Right; Right; Left ]
          ~header:[ "Offset"; "Bytes"; "Events"; "B/event"; "Record" ]
          (List.map
             (fun (e : Trace_store.Index.entry) ->
               [
                 string_of_int e.Trace_store.Index.offset;
                 string_of_int e.Trace_store.Index.bytes;
                 string_of_int e.Trace_store.Index.events;
                 Printf.sprintf "%.2f"
                   (float_of_int e.Trace_store.Index.bytes
                   /. float_of_int (max 1 e.Trace_store.Index.events));
                 e.Trace_store.Index.name;
               ])
             entries);
        Printf.printf "%d records indexed\n" (List.length entries))
  in
  let info_ file =
    fail_trace_errors (fun () ->
        let src = print_container_line file in
        let reader = Trace_store.Reader.of_src src in
        let rec go acc =
          match Trace_store.Reader.next_record reader with
          | None -> List.rev acc
          | Some record ->
              (* a null-sink replay decodes and checksums the record
                 without paying for a tracer *)
              let stats =
                Trace_store.Reader.replay reader Hydra.Trace.null_sink
              in
              go ((record, stats) :: acc)
        in
        let records = go [] in
        Util.Text_table.print
          ~aligns:Util.Text_table.[ Left; Right; Right; Right; Right ]
          ~header:[ "Record"; "Events"; "Bytes"; "B/event"; "Ratio" ]
          (List.map
             (fun ((r : Trace_store.Reader.record),
                   (s : Trace_store.Reader.replay_stats)) ->
               let ref_bytes =
                 Obs.Json.member "reference_bytes" r.Trace_store.Reader.meta
                 |> Fun.flip Option.bind Obs.Json.to_int
                 |> Option.value ~default:0
               in
               [
                 r.Trace_store.Reader.name;
                 string_of_int s.Trace_store.Reader.events;
                 string_of_int s.Trace_store.Reader.record_bytes;
                 Printf.sprintf "%.2f"
                   (float_of_int s.Trace_store.Reader.record_bytes
                   /. float_of_int (max 1 s.Trace_store.Reader.events));
                 Printf.sprintf "%.1f"
                   (float_of_int ref_bytes
                   /. float_of_int (max 1 s.Trace_store.Reader.record_bytes));
               ])
             records);
        Printf.printf "%d records, all checksums verified\n"
          (List.length records))
  in
  let dispatch file records = if records then print_index file else info_ file in
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "list a trace container's records, sizes, and compression, verifying \
          every checksum, without replaying the analysis; --records prints \
          the per-record index instead")
    Term.(const dispatch $ trace_file_arg $ records_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "capture pipeline profiling event streams to a compact on-disk \
          container and replay them (see ARCHITECTURE.md §7 for the format)")
    [ trace_record_cmd; trace_replay_cmd; trace_info_cmd ]

(* ---------------- explore: config-grid sweep over a capture ------- *)

let explore_cmd =
  let grid_arg =
    Arg.(
      value & opt_all string []
      & info [ "grid" ] ~docv:"AXIS=V1,V2,..."
          ~doc:
            "add one grid axis (repeatable): a $(b,Hydra.Config) field by \
             short name (cpus, banks, heap_fifo, cacheline_ts, local_slots, \
             load_buffer, store_buffer, line_words, startup, shutdown, eoi, \
             restart, forward) or canonical name, with its comma-separated \
             values; the sweep evaluates the cartesian product of all axes \
             applied to the default machine")
  in
  let grid_pos_arg =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"AXIS=V1,V2,..."
          ~doc:"extra grid axes, same syntax as $(b,--grid)")
  in
  let matrix_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-json" ] ~docv:"FILE"
          ~doc:
            "write the full machine-readable matrix (per config point: \
             fingerprint, label, config, per-workload summaries + chosen \
             STLs; plus the verdict flips) as JSON to $(docv)")
  in
  let default_summary_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "default-summary-json" ] ~docv:"FILE"
          ~doc:
            "write the default-config column's summaries as a JSON array to \
             $(docv) — the $(b,jrpm sweep --summary-json) format, and \
             byte-identical to it for the same workloads (the \
             replay-determinism gate)")
  in
  let explore file grid grid_pos jobs matrix_json default_summary_json =
    let result =
      fail_trace_errors (fun () ->
          try
            Jrpm.Daemon.execute ~jobs
              (Jrpm.Daemon.Request
                 (Jrpm.Daemon.Explore { path = file; grid = grid @ grid_pos }))
          with Invalid_argument msg ->
            (* an out-of-range grid point (validate) is a usage error *)
            Printf.eprintf "jrpm: %s\n" msg;
            exit 2)
    in
    print_explore ~summary_json:matrix_json ~default_summary_json result
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "replay a recorded trace container under every point of a hardware \
          config grid (cartesian product over Hydra.Config axes; one forked \
          worker task per record, which decodes the record once into one \
          tracer per fusion group: configs that differ only in their \
          overflow limits share one tracer) and print the per-(config x \
          workload) verdict/speedup matrix plus the verdict flips vs the \
          default machine")
    Term.(
      const explore $ trace_file_arg $ grid_arg $ grid_pos_arg $ jobs_arg
      $ matrix_json_arg $ default_summary_json_arg)

(* ---------------- serve / client: profiling as a service ---------- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "listen on a Unix-domain socket at $(docv) (a stale socket file \
             is replaced); talk to it with $(b,jrpm client --socket) $(docv)")
  in
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "serve length-framed requests on stdin/stdout instead of a \
             socket (one client; exits at stdin EOF)")
  in
  let serve socket stdio jobs =
    let transport =
      match (socket, stdio) with
      | Some path, false -> Jrpm.Daemon.Socket path
      | None, true -> Jrpm.Daemon.Stdio
      | Some _, true ->
          Printf.eprintf "jrpm: serve takes --socket PATH or --stdio, not both\n";
          exit 2
      | None, false ->
          Printf.eprintf "jrpm: serve needs --socket PATH or --stdio\n";
          exit 2
    in
    match Jrpm.Daemon.serve ~jobs transport with
    | () -> ()
    | exception Unix.Unix_error (err, _, arg) ->
        Printf.eprintf "jrpm: serve: %s%s\n" (Unix.error_message err)
          (if arg = "" then "" else ": " ^ arg);
        exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the profiling daemon: a resident worker pool serving \
          concurrent profile/replay/explore requests over a Unix-domain \
          socket (protocol: ARCHITECTURE.md §9). Results are byte-identical \
          to the one-shot CLI commands; containers stay mapped across \
          requests")
    Term.(const serve $ socket_arg $ stdio_arg $ jobs_arg)

(* The client subcommands send the request a one-shot command runs
   in-process and print the response with that command's renderer. *)

let client_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"daemon socket path (the $(b,jrpm serve --socket) argument)")

let with_client socket f =
  match Jrpm.Daemon.Client.connect socket with
  | exception Failure msg ->
      Printf.eprintf "jrpm: %s\n" msg;
      exit 1
  | c ->
      Fun.protect
        ~finally:(fun () -> Jrpm.Daemon.Client.close c)
        (fun () ->
          try f c
          with Failure msg ->
            Printf.eprintf "jrpm: %s\n" msg;
            exit 1)

(* A daemon-side error is fatal to the client (the daemon itself keeps
   serving). *)
let client_result r =
  match r.Jrpm.Daemon.rsp with
  | Ok json -> json
  | Error msg ->
      Printf.eprintf "jrpm: daemon error: %s\n" msg;
      exit 1

(* One blocking round-trip. *)
let client_rpc c req =
  let r = Jrpm.Daemon.Client.rpc c req in
  (client_result r, r)

let client_ping_cmd =
  let ping socket =
    with_client socket (fun c ->
        let json, r = client_rpc c Jrpm.Daemon.Ping in
        (match json with
        | Obs.Json.String s -> print_endline s
        | j -> print_endline (Obs.Json.to_string j));
        Printf.eprintf "client: %.3fs round-trip, queue depth %d\n%!"
          r.Jrpm.Daemon.elapsed_s r.Jrpm.Daemon.queue_depth)
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"round-trip one request; prints $(b,pong)")
    Term.(const ping $ client_socket_arg)

let client_profile_cmd =
  let workloads_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD" ~doc:"registered workload names")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "profile every bundled benchmark, in registry order — the \
             daemon-side equivalent of $(b,jrpm sweep)")
  in
  let profile socket names all summary_json =
    let names =
      if all then
        List.map (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name)
          Workloads.Registry.all
      else names
    in
    if names = [] then begin
      Printf.eprintf "jrpm: client profile needs WORKLOAD names or --all\n";
      exit 2
    end;
    with_client socket (fun c ->
        (* one sweep request; the daemon's pool runs its workload tasks
           concurrently and answers with the summaries in list order *)
        ignore (Jrpm.Daemon.Client.send c (Jrpm.Daemon.Sweep names) : Obs.Json.t);
        print_sweep ~summary_json
          (result_summaries (client_result (Jrpm.Daemon.Client.recv c))))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "profile registered workloads through the daemon's warm pool; \
          $(b,--all --summary-json) output is byte-identical to $(b,jrpm \
          sweep --summary-json)")
    Term.(
      const profile $ client_socket_arg $ workloads_arg $ all_arg
      $ summary_json_arg)

let client_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"trace-store container path (daemon-side)")

let client_replay_cmd =
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"NAME"
          ~doc:"replay only the record named $(docv)")
  in
  let replay socket file record summary_json =
    with_client socket (fun c ->
        let json, _ =
          client_rpc c (Jrpm.Daemon.Replay { path = file; record })
        in
        print_replay ~summary_json json)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "replay a container's records through the daemon's cached mapping; \
          $(b,--summary-json) output is byte-identical to $(b,jrpm trace \
          replay --summary-json)")
    Term.(
      const replay $ client_socket_arg $ client_file_arg $ record_arg
      $ summary_json_arg)

let client_explore_cmd =
  let grid_arg =
    Arg.(
      value & opt_all string []
      & info [ "grid" ] ~docv:"AXIS=V1,V2,..."
          ~doc:"grid axes, the $(b,jrpm explore --grid) syntax (repeatable)")
  in
  let matrix_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-json" ] ~docv:"FILE"
          ~doc:
            "write the machine-readable matrix to $(docv) — byte-identical \
             to $(b,jrpm explore --summary-json) for the same container and \
             grid")
  in
  let explore socket file grid matrix_json =
    with_client socket (fun c ->
        let json, r =
          client_rpc c (Jrpm.Daemon.Explore { path = file; grid })
        in
        print_explore ~summary_json:matrix_json ~default_summary_json:None
          json;
        Printf.eprintf "client: %d pool task(s), %.2fs\n%!" r.Jrpm.Daemon.tasks
          r.Jrpm.Daemon.elapsed_s)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "evaluate a config grid over a container through the daemon; \
          stdout and $(b,--summary-json) are byte-identical to $(b,jrpm \
          explore)")
    Term.(
      const explore $ client_socket_arg $ client_file_arg $ grid_arg
      $ matrix_json_arg)

let client_stats_cmd =
  let stats socket =
    with_client socket (fun c ->
        let json, _ = client_rpc c Jrpm.Daemon.Stats in
        print_endline (Obs.Json.to_string ~pretty:true json))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "print the daemon's status JSON: worker pids and busyness, queue \
          depths, mapping-cache hit/miss/eviction counts, request metrics")
    Term.(const stats $ client_socket_arg)

let client_sleep_cmd =
  let seconds_arg =
    Arg.(
      required
      & pos 0 (some float) None
      & info [] ~docv:"SECONDS" ~doc:"how long the worker task sleeps")
  in
  let sleep socket seconds =
    with_client socket (fun c ->
        let _json, r = client_rpc c (Jrpm.Daemon.Sleep seconds) in
        Printf.printf "slept %.3fs (daemon elapsed %.3fs)\n" seconds
          r.Jrpm.Daemon.elapsed_s)
  in
  Cmd.v
    (Cmd.info "sleep"
       ~doc:
         "occupy one daemon worker for $(i,SECONDS) — a diagnostic hook for \
          exercising queueing and worker-death handling")
    Term.(const sleep $ client_socket_arg $ seconds_arg)

let client_shutdown_cmd =
  let shutdown socket =
    with_client socket (fun c ->
        let json, _ = client_rpc c Jrpm.Daemon.Shutdown in
        match json with
        | Obs.Json.String s -> print_endline s
        | j -> print_endline (Obs.Json.to_string j))
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"ask the daemon to finish in-flight requests and exit")
    Term.(const shutdown $ client_socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "talk to a running $(b,jrpm serve) daemon; each subcommand's output \
          is byte-identical to its one-shot equivalent (CI cmp-gates this)")
    [
      client_ping_cmd; client_profile_cmd; client_replay_cmd;
      client_explore_cmd; client_stats_cmd; client_sleep_cmd;
      client_shutdown_cmd;
    ]

let list_cmd =
  let list () =
    Util.Text_table.print
      ~header:[ "Name"; "Category"; "Description"; "Default size" ]
      (List.map
         (fun (w : Workloads.Workload.t) ->
           [
             w.Workloads.Workload.name;
             Workloads.Workload.string_of_category w.Workloads.Workload.category;
             w.Workloads.Workload.description;
             string_of_int w.Workloads.Workload.default_size;
           ])
         Workloads.Registry.all)
  in
  Cmd.v (Cmd.info "list" ~doc:"list bundled benchmarks") Term.(const list $ const ())

(* Default command: `jrpm [--profile] [--profile-json FILE] WORKLOAD`
   where WORKLOAD is a Javelin source file or a bundled benchmark name —
   the whole cycle, like `auto`/`bench`, without naming a subcommand. *)
let default_term =
  let workload_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Javelin source file or bundled benchmark name")
  in
  let run workload banks verbose sync profile profile_json =
    match workload with
    | None -> `Help (`Pager, None)
    | Some w ->
        let name, src =
          if Sys.file_exists w then (Filename.basename w, read_file w)
          else
            match Workloads.Registry.find w with
            | Some b ->
                ( b.Workloads.Workload.name,
                  Workloads.Registry.default_source b )
            | None ->
                Printf.eprintf
                  "no such file or bundled benchmark: %s; try `jrpm list`\n" w;
                exit 1
        in
        `Ok
          (with_frontend_errors (fun () ->
               let r =
                 run_observed ~profile ~profile_json ~banks ~sync ~name src
               in
               print_report verbose r))
  in
  Term.(
    ret
      (const run $ workload_arg $ banks_arg $ verbose_arg $ sync_arg
     $ profile_arg $ profile_json_arg))

let main =
  let doc = "Java Runtime Parallelizing Machine (TEST tracer reproduction)" in
  Cmd.group ~default:default_term
    (Cmd.info "jrpm" ~version:"1.0.0" ~doc)
    [
      run_cmd; profile_cmd; deps_cmd; dump_cmd; auto_cmd; bench_cmd; sweep_cmd;
      trace_cmd; explore_cmd; serve_cmd; client_cmd; list_cmd;
    ]

let () = exit (Cmd.eval main)
