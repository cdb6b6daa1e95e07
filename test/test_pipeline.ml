(* End-to-end Jrpm pipeline tests over real workloads (reduced sizes so
   the suite stays fast). *)

let run_small name scale =
  let w = Workloads.Registry.find_exn name in
  Jrpm.Pipeline.run ~name (w.Workloads.Workload.source scale)

let test_workloads_compile () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = Workloads.Registry.default_source w in
      let tac = Ir.Lower.compile src in
      let table = Compiler.Stl_table.build tac in
      Alcotest.(check bool)
        (w.Workloads.Workload.name ^ " has loops")
        true
        (Compiler.Stl_table.loop_count table > 0))
    Workloads.Registry.all

let test_registry () =
  Alcotest.(check int) "26 benchmarks" 26 (List.length Workloads.Registry.all);
  Alcotest.(check bool) "finds Huffman" true
    (Workloads.Registry.find "Huffman" <> None);
  Alcotest.(check (option string)) "missing" None
    (Option.map
       (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name)
       (Workloads.Registry.find "nosuch"))

let check_report name (r : Jrpm.Pipeline.report) =
  Alcotest.(check bool) (name ^ " outputs match") true r.outputs_match;
  Alcotest.(check bool) (name ^ " base >= opt >= 1") true
    (r.base.slowdown >= r.opt.slowdown -. 0.01 && r.opt.slowdown >= 0.999);
  Alcotest.(check bool)
    (name ^ " slowdown small")
    true (r.opt.slowdown < 1.6);
  Alcotest.(check bool) (name ^ " actual speedup sane") true
    (r.actual_speedup > 0.3 && r.actual_speedup <= 4.05)

let test_huffman_pipeline () =
  let r = run_small "Huffman" 600 in
  check_report "Huffman" r;
  (* Table 3's qualitative claim: the outer decode loop is selected,
     with positive expected speedup, and the inner tree-walk is not
     selected separately underneath it *)
  Alcotest.(check bool) "something chosen" true (r.selection.chosen <> []);
  let chosen_in_decode =
    List.filter
      (fun (c : Test_core.Analyzer.choice) ->
        let s = Compiler.Stl_table.stl_of r.table c.chosen_stl in
        s.Compiler.Stl_table.func_name = "decode")
      r.selection.chosen
  in
  Alcotest.(check int) "one decode STL chosen" 1 (List.length chosen_in_decode);
  let c = List.hd chosen_in_decode in
  let s = Compiler.Stl_table.stl_of r.table c.Test_core.Analyzer.chosen_stl in
  (* the outer do-while (depth 1), not the inner tree-descent *)
  Alcotest.(check int) "outer loop" 1 s.Compiler.Stl_table.static_depth

let test_parallel_float_pipeline () =
  let r = run_small "shallow" 24 in
  check_report "shallow" r;
  Alcotest.(check bool) "good predicted speedup" true
    (r.selection.predicted_speedup > 2.);
  Alcotest.(check bool) "good actual speedup" true (r.actual_speedup > 2.)

let test_montecarlo_pipeline () =
  let r = run_small "monteCarlo" 1500 in
  check_report "monteCarlo" r;
  Alcotest.(check bool) "near-perfect speedup" true (r.actual_speedup > 3.)

let test_serialish_pipeline () =
  (* MipsSimulator carries architected state: TLS should not blow up *)
  let r = run_small "MipsSimulator" 3000 in
  check_report "MipsSimulator" r

let test_anno_components_sum () =
  let r = run_small "NumHeapSort" 500 in
  (* in both profiling runs the slowdown components must not exceed the
     total overhead *)
  let check what (a : Jrpm.Pipeline.anno_run) =
    let overhead = a.cycles - r.plain_cycles in
    let parts = a.locals_cycles + a.read_stats_cycles + a.loop_anno_cycles in
    Alcotest.(check bool) (what ^ ": components <= overhead") true
      (parts <= overhead);
    Alcotest.(check bool) (what ^ ": components > 0") true (parts > 0)
  in
  check "base" r.base;
  check "opt" r.opt

(* The differential gate of the one-run pipeline: the plain baseline and
   the base-annotation split [Pipeline.run] derives from its traced run
   equal real runs of the plain and the base-annotated builds, and the
   run interprets the program once. *)
let check_derived what ~optimize src =
  let rc = Obs.Recorder.create () in
  let r =
    Jrpm.Pipeline.run ~obs:(Obs.Recorder.sink rc) ~optimize ~name:what src
  in
  let gen mode =
    Compiler.Codegen.generate ~mode r.Jrpm.Pipeline.table r.Jrpm.Pipeline.tac
  in
  let plain = Hydra.Seq_interp.run (gen Compiler.Codegen.Plain) in
  let annotated optimized =
    Hydra.Seq_interp.run ~tracing:true
      (gen (Compiler.Codegen.Annotated { optimized }))
  in
  let base = annotated false and opt = annotated true in
  let what = Printf.sprintf "%s (optimize %b)" what optimize in
  Alcotest.(check int) (what ^ ": plain cycles") plain.Hydra.Seq_interp.cycles
    r.plain_cycles;
  Alcotest.(check bool) (what ^ ": plain output") true
    (List.equal Ir.Value.equal plain.Hydra.Seq_interp.output r.plain_output);
  let check_anno which (real : Hydra.Seq_interp.result)
      (a : Jrpm.Pipeline.anno_run) =
    let check field want got =
      Alcotest.(check int) (Printf.sprintf "%s: %s %s" what which field) want got
    in
    check "cycles" real.cycles a.cycles;
    check "locals" real.locals_cycles a.locals_cycles;
    check "read stats" real.read_stats_cycles a.read_stats_cycles;
    check "loop annotations" real.loop_anno_cycles a.loop_anno_cycles;
    Alcotest.(check (float 0.)) (what ^ ": " ^ which ^ " slowdown")
      (Float.of_int real.cycles /. Float.of_int (max 1 plain.cycles))
      a.slowdown
  in
  check_anno "base" base r.base;
  check_anno "opt" opt r.opt;
  (* one sequential interpretation: the traced optimized build's *)
  Alcotest.(check int) (what ^ ": interp.instructions")
    opt.Hydra.Seq_interp.instructions
    (Obs.Metrics.counter (Obs.Recorder.metrics rc) "interp.instructions");
  Alcotest.(check (list string)) (what ^ ": phases") Jrpm.Pipeline.phases
    (List.map (fun (p, _, _) -> p) (Obs.Recorder.phase_spans rc))

let test_derived_registry () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = Workloads.Registry.default_source w in
      List.iter
        (fun optimize -> check_derived w.Workloads.Workload.name ~optimize src)
        [ true; false ])
    Workloads.Registry.all

let test_derived_fuzz () =
  for seed = 1 to 50 do
    let src = Fuzz_gen.gen_program seed in
    List.iter
      (fun optimize ->
        check_derived (Printf.sprintf "seed %d" seed) ~optimize src)
      [ true; false ]
  done

(* `deps` validates --banks like `profile`: the same message and exit 2,
   not an escaped exception or an empty report. *)
let test_cli_banks_rejected () =
  let jrpm = "../bin/jrpm_cli.exe" in
  if Sys.file_exists jrpm then begin
    let src = Filename.temp_file "jrpm_banks" ".jvl" in
    let errfile = Filename.temp_file "jrpm_banks" ".err" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ src; errfile ])
      (fun () ->
        Out_channel.with_open_bin src (fun oc ->
            output_string oc "def main() { print_int(1); }");
        let stderr_of cmd banks =
          let code =
            Sys.command
              (Printf.sprintf "%s %s --banks=%s %s >/dev/null 2>%s" jrpm cmd
                 banks (Filename.quote src) (Filename.quote errfile))
          in
          Alcotest.(check int) (cmd ^ " --banks=" ^ banks ^ ": exit") 2 code;
          In_channel.with_open_bin errfile In_channel.input_all
        in
        List.iter
          (fun banks ->
            let p = stderr_of "profile" banks in
            Alcotest.(check string) ("--banks=" ^ banks ^ ": same message") p
              (stderr_of "deps" banks);
            Alcotest.(check string) "the message"
              (Printf.sprintf
                 "jrpm: Hydra.Config: comparator_banks must be positive (got %s)\n"
                 banks)
              p)
          [ "0"; "-1" ])
  end

(* `deps` on a program whose loops carry no dependency says so in one
   line and exits 0, so an empty profile reads differently from a
   program with no loop at all. *)
let test_cli_deps_empty_profile () =
  let jrpm = "../bin/jrpm_cli.exe" in
  if Sys.file_exists jrpm then begin
    let src = Filename.temp_file "jrpm_deps" ".jvl" in
    let outfile = Filename.temp_file "jrpm_deps" ".out" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ src; outfile ])
      (fun () ->
        let deps program =
          Out_channel.with_open_bin src (fun oc -> output_string oc program);
          let code =
            Sys.command
              (Printf.sprintf "%s deps %s >%s 2>&1" jrpm (Filename.quote src)
                 (Filename.quote outfile))
          in
          Alcotest.(check int) "exit" 0 code;
          In_channel.with_open_bin outfile In_channel.input_all
        in
        Alcotest.(check string) "independent loop"
          "no dependency arcs recorded (1 STLs traced)\n"
          (deps
             {|int[] a;
def main() {
  a = new int[64];
  for (int i = 0; i < 64; i = i + 1) { a[i] = i * 2; }
  print_int(a[63]);
}
|});
        Alcotest.(check string) "no loop"
          "no dependency arcs recorded (0 STLs traced)\n"
          (deps "def main() { print_int(1); }"))
  end

(* A program that never terminates is a user error: `run` stops it at
   the fuel limit with a runtime-trap message and exit 2, not an escaped
   exception. *)
let test_cli_out_of_fuel () =
  let jrpm = "../bin/jrpm_cli.exe" in
  if Sys.file_exists jrpm then begin
    let src = Filename.temp_file "jrpm_fuel" ".jvl" in
    let errfile = Filename.temp_file "jrpm_fuel" ".err" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ src; errfile ])
      (fun () ->
        Out_channel.with_open_bin src (fun oc ->
            output_string oc "def main() { while (1) { } }");
        let code =
          Sys.command
            (Printf.sprintf "%s run %s >/dev/null 2>%s" jrpm (Filename.quote src)
               (Filename.quote errfile))
        in
        Alcotest.(check int) "exit" 2 code;
        Alcotest.(check string) "the message"
          "runtime trap: out of fuel after 500000000 instructions\n"
          (In_channel.with_open_bin errfile In_channel.input_all))
  end

(* Every CLI output file goes through one atomic writer: a summary JSON
   that cannot be written exits 1 with a message naming it, and leaves
   no staging [.tmp] file behind — neither when the directory is missing
   nor when the final rename fails (the target is a directory). *)
let test_cli_summary_json_unwritable () =
  let jrpm = "../bin/jrpm_cli.exe" in
  if Sys.file_exists jrpm then begin
    let container = Filename.temp_file "jrpm_write" ".jtrc" in
    let errfile = Filename.temp_file "jrpm_write" ".err" in
    let dir = Filename.temp_file "jrpm_write" ".dir" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ container; errfile; Trace_store.Atomic_io.tmp_path dir ];
        try Sys.rmdir dir with Sys_error _ -> ())
      (fun () ->
        let _, record =
          Jrpm.Replay.capture_run ~name:"tiny"
            "def main() { int s = 0; for (int i = 0; i < 8; i = i + 1) { s = s \
             + i; } print_int(s); }"
        in
        Trace_store.Atomic_io.write_string ~path:container
          (Trace_store.Writer.container [ record ]);
        List.iter
          (fun (what, out) ->
            let code =
              Sys.command
                (Printf.sprintf "%s trace replay %s --summary-json %s \
                                 >/dev/null 2>%s"
                   jrpm (Filename.quote container) (Filename.quote out)
                   (Filename.quote errfile))
            in
            Alcotest.(check int) (what ^ ": exit") 1 code;
            let err = In_channel.with_open_bin errfile In_channel.input_all in
            Alcotest.(check bool)
              (what ^ ": names the file: " ^ err)
              true
              (String.starts_with ~prefix:"jrpm: cannot write summary JSON: "
                 err);
            Alcotest.(check bool) (what ^ ": no .tmp left") false
              (Sys.file_exists (Trace_store.Atomic_io.tmp_path out)))
          [
            ("missing directory", Filename.concat dir "missing/out.json");
            ("directory target", dir);
          ])
  end

let test_dataset_sensitivity () =
  (* Sec. 6.1: with a larger data set, inner-loop trip counts grow and
     speculating high in the nest overflows the buffers, so selection
     moves (or stays) low; with small data the outer loop is viable.
     We check the mechanism: overflow frequency of the outer loop grows
     with the data size. *)
  let w = Workloads.Registry.find_exn "LuFactor" in
  let ovf scale =
    let { Jrpm.Pipeline.tracer; _ } =
      Jrpm.Pipeline.profile_only (w.Workloads.Workload.source scale)
    in
    let stats = Test_core.Tracer.stats tracer in
    List.fold_left
      (fun acc (_, s) -> Float.max acc (Test_core.Stats.overflow_freq s))
      0. stats
  in
  let small = ovf 12 and large = ovf 56 in
  Alcotest.(check bool)
    (Printf.sprintf "overflow grows with dataset (%.3f -> %.3f)" small large)
    true (large >= small)

let suites =
  [
    ( "pipeline.registry",
      [
        Alcotest.test_case "all compile" `Slow test_workloads_compile;
        Alcotest.test_case "registry" `Quick test_registry;
      ] );
    ( "pipeline.end_to_end",
      [
        Alcotest.test_case "huffman (table 3 shape)" `Slow test_huffman_pipeline;
        Alcotest.test_case "shallow water" `Slow test_parallel_float_pipeline;
        Alcotest.test_case "monte carlo" `Slow test_montecarlo_pipeline;
        Alcotest.test_case "mips simulator" `Slow test_serialish_pipeline;
        Alcotest.test_case "slowdown components" `Slow test_anno_components_sum;
        Alcotest.test_case "dataset sensitivity" `Slow test_dataset_sensitivity;
        Alcotest.test_case "deps and profile reject bad --banks" `Quick
          test_cli_banks_rejected;
        Alcotest.test_case "deps reports an empty profile" `Quick
          test_cli_deps_empty_profile;
        Alcotest.test_case "run stops a non-terminating program" `Quick
          test_cli_out_of_fuel;
        Alcotest.test_case "unwritable summary JSON" `Quick
          test_cli_summary_json_unwritable;
      ] );
    ( "pipeline.derived",
      [
        Alcotest.test_case "registry baselines equal real runs" `Slow
          test_derived_registry;
        Alcotest.test_case "generated baselines equal real runs" `Quick
          test_derived_fuzz;
      ] );
  ]
