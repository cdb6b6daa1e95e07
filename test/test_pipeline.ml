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
        Alcotest.test_case "run stops a non-terminating program" `Quick
          test_cli_out_of_fuel;
      ] );
  ]
