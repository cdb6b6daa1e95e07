(* Regenerates every table and figure of the paper's evaluation
   (see DESIGN.md's experiment index).

   Usage: dune exec bench/main.exe             (everything)
          dune exec bench/main.exe -- quick    (the same run; the name
                                               CI's golden-file step and
                                               older scripts pass)
          dune exec bench/main.exe -- profile  (add per-benchmark
                                               pipeline-phase times)
          dune exec bench/main.exe -- --jobs N (fan the benchmark sweep
                                               out over N worker
                                               processes; default: core
                                               count; output is byte-
                                               identical for any N)
          dune exec bench/main.exe -- replay   (trace-store benchmark:
                                               capture real workloads, then
                                               time replaying the trace
                                               into a fresh tracer against
                                               re-interpreting the program;
                                               add --smoke for the CI
                                               variant that fails if replay
                                               is not >= 5x faster)
          dune exec bench/main.exe -- sched    (scheduler benchmark:
                                               record-sharded parallel trace
                                               decode vs one core; --smoke
                                               is the CI variant, gating the
                                               decode speedup on >= 4 cores)
          dune exec bench/main.exe -- serve    (serve benchmark: repeated
                                               replay requests against the
                                               resident jrpm daemon's warm
                                               pool + mapping cache vs
                                               forking a fresh one-shot
                                               replay process per request;
                                               --smoke is the CI variant
                                               gating the warm-pool speedup
                                               on >= 4 cores) *)

let line = String.make 72 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line
let pct x = Printf.sprintf "%.1f%%" (100. *. x)

(* ------------------------------------------------------------------ *)
(* Tables 1 & 2: hardware constants *)

let table1 () =
  let hw = Hydra.Config.default in
  section "Table 1 - Thread-level speculation buffer limits";
  Util.Text_table.print
    ~header:[ "Buffer"; "Per-thread limit"; "Associativity" ]
    [
      [
        "Load buffer";
        Printf.sprintf "16kB (%d lines x 32B)" hw.load_buffer_lines;
        "4-way";
      ];
      [
        "Store buffer";
        Printf.sprintf "2kB (%d lines x 32B)" hw.store_buffer_lines;
        "Fully";
      ];
    ]

let table2 () =
  let hw = Hydra.Config.default in
  section "Table 2 - Thread-level speculation overheads";
  Util.Text_table.print
    ~header:[ "TLS operation"; "Overhead/delay" ]
    [
      [ "Loop startup"; Printf.sprintf "%d cycles" hw.loop_startup ];
      [ "Loop shutdown"; Printf.sprintf "%d cycles" hw.loop_shutdown ];
      [ "Loop end-of-iteration"; Printf.sprintf "%d cycles" hw.loop_eoi ];
      [
        "Violation and restart";
        Printf.sprintf "%d cycles" hw.violation_restart;
      ];
      [
        "Store-load communication";
        Printf.sprintf "%d cycles" hw.store_load_communication;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Figure 3 / Figure 4 worked examples *)

let figure3 () =
  section "Figure 3 - Load dependency analysis worked example (Huffman)";
  let t = Test_core.Tracer.create () in
  let s = Test_core.Tracer.sink t in
  let a = 100 and b = 200 in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_heap_store ~addr:a ~now:8;
  s.Hydra.Trace.on_heap_store ~addr:b ~now:11;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:13;
  s.Hydra.Trace.on_heap_load ~addr:a ~pc:1 ~now:16;
  s.Hydra.Trace.on_heap_store ~addr:a ~now:18;
  s.Hydra.Trace.on_heap_load ~addr:b ~pc:2 ~now:20;
  s.Hydra.Trace.on_heap_store ~addr:b ~now:21;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:24;
  s.Hydra.Trace.on_heap_load ~addr:a ~pc:1 ~now:26;
  s.Hydra.Trace.on_heap_load ~addr:b ~pc:2 ~now:32;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:35;
  let st = Option.get (Test_core.Tracer.find_stats t 0) in
  Util.Text_table.print
    ~header:[ "Derived value"; "Paper"; "Measured" ]
    [
      [ "# threads"; "3"; string_of_int st.Test_core.Stats.threads ];
      [ "elapsed cycles in loop"; "35"; string_of_int st.Test_core.Stats.cycles ];
      [
        "avg. thread size";
        "11.6";
        Printf.sprintf "%.1f" (Test_core.Stats.avg_thread_size st);
      ];
      [
        "critical arc count to t-1";
        "2";
        string_of_int st.Test_core.Stats.crit_prev_count;
      ];
      [
        "accum. critical arc length to t-1";
        "16";
        string_of_int st.Test_core.Stats.crit_prev_len;
      ];
      [
        "avg. critical arc length to t-1";
        "8";
        Printf.sprintf "%.0f" (Test_core.Stats.avg_crit_prev_len st);
      ];
      [
        "critical arc freq to t-1";
        "1.0";
        Printf.sprintf "%.1f" (Test_core.Stats.crit_prev_freq st);
      ];
      [
        "critical arc count to <t-1";
        "0";
        string_of_int st.Test_core.Stats.crit_earlier_count;
      ];
    ]

let figure4 () =
  section "Figure 4 - Speculative state overflow analysis worked example";
  let config =
    {
      Test_core.Tracer.default_config with
      Test_core.Tracer.ld_limit = 2;
      st_limit = 1;
    }
  in
  let t = Test_core.Tracer.create ~config () in
  let s = Test_core.Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_heap_load ~addr:0 ~pc:1 ~now:1;
  s.Hydra.Trace.on_heap_load ~addr:4 ~pc:1 ~now:2;
  s.Hydra.Trace.on_heap_load ~addr:64 ~pc:1 ~now:3;
  s.Hydra.Trace.on_heap_store ~addr:128 ~now:4;
  s.Hydra.Trace.on_heap_store ~addr:132 ~now:5;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_heap_load ~addr:0 ~pc:1 ~now:11;
  s.Hydra.Trace.on_heap_load ~addr:64 ~pc:1 ~now:12;
  s.Hydra.Trace.on_heap_load ~addr:256 ~pc:1 ~now:13;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:20;
  s.Hydra.Trace.on_heap_store ~addr:0 ~now:21;
  s.Hydra.Trace.on_heap_store ~addr:300 ~now:22;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:30;
  let st = Option.get (Test_core.Tracer.find_stats t 0) in
  Printf.printf
    "ld_limit=2 st_limit=1 (scaled-down Table 1 limits)\n\
     thread 1: 2 load lines, 1 store line -> fits\n\
     thread 2: 3 load lines               -> overflow\n\
     thread 3: 2 store lines              -> overflow\n";
  Util.Text_table.print
    ~header:[ "Counter"; "Expected"; "Measured" ]
    [
      [ "threads"; "3"; string_of_int st.Test_core.Stats.threads ];
      [
        "overflowing threads";
        "2";
        string_of_int st.Test_core.Stats.overflow_threads;
      ];
      [
        "max load lines/thread";
        "3";
        string_of_int st.Test_core.Stats.max_load_lines;
      ];
      [
        "max store lines/thread";
        "2";
        string_of_int st.Test_core.Stats.max_store_lines;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Whole-suite reports (shared by Table 3/6 and Figures 6/10/11) *)

(* set before [reports] is forced (by the `profile` / `--jobs` CLI
   args): attach an observability recorder to every benchmark's
   pipeline run, and the worker-process count for the sweep *)
let observe_phases = ref false
let sweep_jobs = ref 1

let reports :
    (string * (Jrpm.Pipeline.report * Obs.Recorder.t option)) list Lazy.t =
  lazy
    (List.map
       (fun (o : Jrpm.Daemon.outcome) ->
         (o.Jrpm.Daemon.workload.Workloads.Workload.name,
          (Option.get o.Jrpm.Daemon.report, o.Jrpm.Daemon.recorder)))
       (Jrpm.Daemon.sweep ~jobs:!sweep_jobs ~observe:!observe_phases
          ~report:true Workloads.Registry.all))

let report name = fst (List.assoc name (Lazy.force reports))

(* Table 3: Equation 2 applied to the Huffman decode nest *)
let table3 () =
  section "Table 3 - Choosing between the Huffman outer and inner STL (Eq. 2)";
  let r = report "Huffman" in
  let decode_stls =
    Array.to_list r.Jrpm.Pipeline.table.Compiler.Stl_table.stls
    |> List.filter (fun (s : Compiler.Stl_table.stl) ->
           s.Compiler.Stl_table.func_name = "decode")
  in
  let outer =
    List.find
      (fun (s : Compiler.Stl_table.stl) -> s.Compiler.Stl_table.static_depth = 1)
      decode_stls
  in
  let inner =
    List.find
      (fun (s : Compiler.Stl_table.stl) -> s.Compiler.Stl_table.static_depth = 2)
      decode_stls
  in
  let row name (s : Compiler.Stl_table.stl) =
    match List.assoc_opt s.Compiler.Stl_table.id r.Jrpm.Pipeline.estimates with
    | Some e ->
        [
          name;
          string_of_int e.Test_core.Analyzer.seq_cycles;
          Printf.sprintf "%.2f" e.Test_core.Analyzer.est_speedup;
          Printf.sprintf "%.0f" e.Test_core.Analyzer.spec_time;
        ]
    | None -> [ name; "-"; "-"; "-" ]
  in
  Printf.printf
    "Paper: outer 18941K cycles @1.85 -> 10238K; inner 13774K @1.30 + serial\n\
     5167K -> 15762K; the outer loop wins. Shape check below (our dataset):\n";
  Util.Text_table.print
    ~header:
      [ "Decomposition"; "Sequential cycles"; "Est. speedup"; "TLS cycles (est)" ]
    [ row "Outer decode loop" outer; row "Inner tree-walk loop" inner ];
  let chosen_outer =
    List.exists
      (fun (c : Test_core.Analyzer.choice) ->
        c.Test_core.Analyzer.chosen_stl = outer.Compiler.Stl_table.id)
      r.Jrpm.Pipeline.selection.Test_core.Analyzer.chosen
  in
  Printf.printf "Equation 2 chose the OUTER decode loop: %b (paper: yes)\n"
    chosen_outer

(* Table 5 *)
let table5 () =
  section "Table 5 - Transistor count estimates (Hydra + TLS + TEST)";
  let t = Hydra.Hardware_cost.estimate () in
  Format.printf "%a@." Hydra.Hardware_cost.pp t;
  Printf.printf "TEST comparator banks fraction: %s (paper: < 1%%)\n"
    (pct (Hydra.Hardware_cost.test_fraction t))

(* Table 6 *)
let table6 () =
  section "Table 6 - Benchmarks evaluated with STLs selected by TEST";
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let r = report w.Workloads.Workload.name in
        let chosen =
          List.filter
            (fun (c : Test_core.Analyzer.choice) ->
              c.Test_core.Analyzer.coverage > 0.005)
            r.Jrpm.Pipeline.selection.Test_core.Analyzer.chosen
        in
        let heights, thr_per_entry, thr_size =
          let hs = ref [] and tpe = ref [] and ts = ref [] in
          List.iter
            (fun (c : Test_core.Analyzer.choice) ->
              let s =
                Compiler.Stl_table.stl_of r.Jrpm.Pipeline.table
                  c.Test_core.Analyzer.chosen_stl
              in
              hs := float_of_int s.Compiler.Stl_table.height :: !hs;
              match
                List.assoc_opt c.Test_core.Analyzer.chosen_stl
                  r.Jrpm.Pipeline.stats
              with
              | Some st ->
                  tpe := Test_core.Stats.avg_iters_per_entry st :: !tpe;
                  ts := Test_core.Stats.avg_thread_size st :: !ts
              | None -> ())
            chosen;
          let mean = function
            | [] -> 0.
            | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
          in
          (mean !hs, mean !tpe, mean !ts)
        in
        [
          Workloads.Workload.string_of_category w.Workloads.Workload.category;
          w.Workloads.Workload.name;
          (if w.Workloads.Workload.analyzable then "Y" else "N");
          (if w.Workloads.Workload.data_sensitive then "Y" else "N");
          string_of_int r.Jrpm.Pipeline.loop_count;
          string_of_int r.Jrpm.Pipeline.max_dynamic_depth;
          string_of_int (List.length chosen);
          Printf.sprintf "%.1f" heights;
          Printf.sprintf "%.0f" thr_per_entry;
          Printf.sprintf "%.0f" thr_size;
        ])
      Workloads.Registry.all
  in
  Util.Text_table.print
    ~aligns:
      Util.Text_table.
        [ Left; Left; Left; Left; Right; Right; Right; Right; Right; Right ]
    ~header:
      [
        "Category"; "Benchmark"; "(a)Anlz"; "(b)DataSens"; "(c)Loops";
        "(d)Depth"; "(e)Selected"; "(f)AvgHeight"; "(g)Thr/entry"; "(h)ThrSize";
      ]
    rows

(* Figure 6 *)
let figure6 () =
  section "Figure 6 - Execution slowdown during profiling (base | optimized)";
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let r = report w.Workloads.Workload.name in
        let part (a : Jrpm.Pipeline.anno_run) =
          Printf.sprintf "%5.1f%% (lcl %4.1f%% cnt %4.1f%% loop %4.1f%%)"
            (100. *. (a.Jrpm.Pipeline.slowdown -. 1.))
            (100.
            *. float_of_int a.Jrpm.Pipeline.locals_cycles
            /. float_of_int r.Jrpm.Pipeline.plain_cycles)
            (100.
            *. float_of_int a.Jrpm.Pipeline.read_stats_cycles
            /. float_of_int r.Jrpm.Pipeline.plain_cycles)
            (100.
            *. float_of_int a.Jrpm.Pipeline.loop_anno_cycles
            /. float_of_int r.Jrpm.Pipeline.plain_cycles)
        in
        [
          w.Workloads.Workload.name;
          part r.Jrpm.Pipeline.base;
          part r.Jrpm.Pipeline.opt;
        ])
      Workloads.Registry.all
  in
  Util.Text_table.print
    ~header:[ "Benchmark"; "Base annotations"; "Optimized annotations" ]
    rows;
  let maxopt =
    List.fold_left
      (fun acc (_, ((r : Jrpm.Pipeline.report), _)) ->
        Float.max acc (r.Jrpm.Pipeline.opt.Jrpm.Pipeline.slowdown -. 1.))
      0. (Lazy.force reports)
  in
  Printf.printf "Max optimized-annotation slowdown: %s (paper: 3-25%%)\n"
    (pct maxopt)

(* Figure 9 *)
let figure9 () =
  section "Figure 9 - Imprecision: every-nth-iteration parallelism missed";
  let src =
    {|
int[] a;
def main() {
  int n = 5;
  a = new int[4000];
  a[0] = 1;
  for (int i = 1; i < 4000; i = i + 1) {
    if (i % n != 0) {
      int t = a[i - 1];
      t = t * 3 + 1; t = t * 5 % 997; t = t * 7 % 991;
      t = t * 11 % 983; t = t * 13 % 977;
      a[i] = t % 100 + 1;
    }
  }
  print_int(a[3999]);
}
|}
  in
  let { Jrpm.Pipeline.tracer; _ } = Jrpm.Pipeline.profile_only src in
  let _, st =
    List.fold_left
      (fun ((_, b) as acc) ((_, s) as c) ->
        if s.Test_core.Stats.cycles > b.Test_core.Stats.cycles then c else acc)
      (List.hd (Test_core.Tracer.stats tracer))
      (Test_core.Tracer.stats tracer)
  in
  let e = Test_core.Analyzer.estimate st in
  Printf.printf
    "Loop parallel at every 5th iteration, but TEST sees arc frequency %.2f\n\
     to the previous thread and estimates speedup %.2f -> judged serial.\n"
    (Test_core.Stats.crit_prev_freq st)
    e.Test_core.Analyzer.est_speedup

(* Figures 10 & 11 *)
let figure10 () =
  section "Figure 10 - Selected STLs: coverage blocks and predicted time";
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let r = report w.Workloads.Workload.name in
        let sel = r.Jrpm.Pipeline.selection in
        let blocks =
          List.filter
            (fun (c : Test_core.Analyzer.choice) ->
              c.Test_core.Analyzer.coverage > 0.005)
            sel.Test_core.Analyzer.chosen
        in
        let serial_frac =
          1.
          -. List.fold_left
               (fun acc (c : Test_core.Analyzer.choice) ->
                 acc +. c.Test_core.Analyzer.coverage)
               0. blocks
        in
        [
          w.Workloads.Workload.name;
          string_of_int (List.length blocks);
          pct (Float.max 0. serial_frac);
          Printf.sprintf "%.2f"
            (1. /. sel.Test_core.Analyzer.predicted_speedup);
          String.concat " "
            (List.map
               (fun (c : Test_core.Analyzer.choice) ->
                 Printf.sprintf "[%.0f%%@%.1fx]"
                   (100. *. c.Test_core.Analyzer.coverage)
                   c.Test_core.Analyzer.speedup)
               blocks);
        ])
      Workloads.Registry.all
  in
  Util.Text_table.print
    ~header:
      [
        "Benchmark"; "STLs"; "Serial"; "Pred time (O=1.00)";
        "STL blocks (cov@speedup)";
      ]
    rows

let figure11 () =
  section "Figure 11 - Estimated versus actual speedup (normalized time)";
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let r = report w.Workloads.Workload.name in
        [
          w.Workloads.Workload.name;
          Printf.sprintf "%.2f"
            (1. /. r.Jrpm.Pipeline.selection.Test_core.Analyzer.predicted_speedup);
          Printf.sprintf "%.2f" (1. /. r.Jrpm.Pipeline.actual_speedup);
          Printf.sprintf "%.2f"
            r.Jrpm.Pipeline.selection.Test_core.Analyzer.predicted_speedup;
          Printf.sprintf "%.2f" r.Jrpm.Pipeline.actual_speedup;
          string_of_int r.Jrpm.Pipeline.spec_stats.Hydra.Tls_sim.violations;
          (if r.Jrpm.Pipeline.outputs_match then "yes" else "NO!");
        ])
      Workloads.Registry.all
  in
  Util.Text_table.print
    ~aligns:Util.Text_table.[ Left; Right; Right; Right; Right; Right; Left ]
    ~header:
      [
        "Benchmark"; "Pred time"; "Actual time"; "Pred speedup";
        "Actual speedup"; "Violations"; "Outputs match";
      ]
    rows

(* Sec. 4.1 justification: method-call-return decompositions that loop
   STLs do NOT already cover. The paper: "our experiments so far have
   not found many method call return or general region decompositions
   that are either not covered by similar loop decompositions or have
   significant coverage to impact total execution time." *)
let method_coverage () =
  section "Sec 4.1 - method-return decompositions not covered by loop STLs";
  let rows =
    List.filter_map
      (fun (w : Workloads.Workload.t) ->
        let r = report w.Workloads.Workload.name in
        match r.Jrpm.Pipeline.method_candidates with
        | [] -> None
        | c :: _ as all ->
            Some
              [
                w.Workloads.Workload.name;
                string_of_int (List.length all);
                c.Test_core.Method_profile.cand_name;
                Printf.sprintf "%.1f%%"
                  (100. *. c.Test_core.Method_profile.uncovered_coverage);
              ])
      Workloads.Registry.all
  in
  if rows = [] then
    print_endline
      "No benchmark has a method-return decomposition with >= 2% coverage\n\
       outside loop STLs - every method call of consequence happens inside\n\
       a candidate loop, confirming the paper's focus on loop decompositions."
  else begin
    Printf.printf
      "%d of %d benchmarks expose uncovered method-return candidates:\n"
      (List.length rows)
      (List.length Workloads.Registry.all);
    Util.Text_table.print
      ~header:[ "Benchmark"; "Candidates"; "Largest"; "Uncovered coverage" ]
      rows
  end

(* Extension ablation: learned synchronization (paper refs [10]/[30],
   the violation-minimizing mechanism Sec. 6.3 says TEST's statistics
   can direct). DESIGN.md lists this as a design-choice ablation. *)
let ablation_sync () =
  section "Ablation - learned synchronization vs restart-only TLS";
  let rows =
    List.map
      (fun name ->
        let r = report name in
        let selected =
          List.map
            (fun (c : Test_core.Analyzer.choice) -> c.Test_core.Analyzer.chosen_stl)
            r.Jrpm.Pipeline.selection.Test_core.Analyzer.chosen
        in
        let tls =
          Compiler.Codegen.generate
            ~mode:(Compiler.Codegen.Tls { selected })
            r.Jrpm.Pipeline.table r.Jrpm.Pipeline.tac
        in
        let s = Hydra.Tls_sim.run ~sync:true tls in
        let sp c = float_of_int r.Jrpm.Pipeline.plain_cycles /. float_of_int c in
        [
          name;
          Printf.sprintf "%.2f" r.Jrpm.Pipeline.actual_speedup;
          Printf.sprintf "%.2f" (sp s.Hydra.Tls_sim.cycles);
          string_of_int r.Jrpm.Pipeline.spec_stats.Hydra.Tls_sim.violations;
          string_of_int s.Hydra.Tls_sim.stats.Hydra.Tls_sim.violations;
          string_of_int s.Hydra.Tls_sim.stats.Hydra.Tls_sim.sync_stalls;
        ])
      [ "NeuralNet"; "h263dec"; "compress"; "fft"; "Huffman"; "IDEA" ]
  in
  Util.Text_table.print
    ~aligns:Util.Text_table.[ Left; Right; Right; Right; Right; Right ]
    ~header:
      [
        "Benchmark"; "Restart-only x"; "With sync x"; "Violations";
        "Viol. w/ sync"; "Sync stalls";
      ]
    rows

(* Pipeline-phase wall-clock time per benchmark, from the lib/obs layer
   (enabled by the `profile` CLI arg). *)
let pipeline_phases () =
  section "Pipeline phase wall-clock seconds per benchmark (lib/obs)";
  let phases = Jrpm.Pipeline.phases in
  let rows =
    List.map
      (fun (name, (_, recorder)) ->
        match recorder with
        | None -> [ name; "-" ]
        | Some rc ->
            let spans = Obs.Recorder.phase_spans rc in
            let seconds p =
              match List.find_opt (fun (n, _, _) -> n = p) spans with
              | Some (_, _, s) -> Printf.sprintf "%.4f" s
              | None -> "-"
            in
            let total =
              List.fold_left (fun acc (_, _, s) -> acc +. s) 0. spans
            in
            (name :: List.map seconds phases)
            @ [ Printf.sprintf "%.4f" total ])
      (Lazy.force reports)
  in
  Util.Text_table.print
    ~aligns:(Util.Text_table.Left :: List.map (fun _ -> Util.Text_table.Right) (phases @ [ "total" ]))
    ~header:(("Benchmark" :: phases) @ [ "total" ])
    rows

(* ------------------------------------------------------------------ *)
(* Trace-store benchmark (`bench -- replay [--smoke]`): capture real
   workloads into an in-memory container once, then time the two ways
   of producing a workload's Report_summary — the full interpretation
   pipeline ({!Jrpm.Pipeline.run}: frontend, plain + annotated + base
   runs, analysis, codegen, TLS simulation) vs replaying the recorded
   stream into a fresh tracer + analyzer ({!Jrpm.Replay.replay_entry}),
   which yields the byte-identical summary. Replay must win by a wide
   margin; the checked-in floor below is the CI gate, far under the
   typical measured ratio.

   Two informational columns decompose the replay side at stream level:
   decode-only throughput (container -> null sink) and profile-only
   interpretation time ({!Jrpm.Pipeline.profile_only}, the cheapest way
   to re-derive just the tracer statistics). The profile-only ratio is
   deliberately NOT gated: both paths end in the same tracer, whose
   per-event cost is the shared floor, so the decode advantage shows up
   there as roughly 2-4x rather than the pipeline-level 15-30x. *)

let replay_speedup_floor = 5.0

let replay_bench ~smoke () =
  section
    (if smoke then "Trace replay benchmark (smoke: speedup floor)"
     else "Trace replay benchmark (replay vs re-interpretation)");
  let names =
    if smoke then [ "BitOps"; "fft" ]
    else [ "BitOps"; "Huffman"; "compress"; "fft"; "NeuralNet" ]
  in
  let repeats = if smoke then 1 else 3 in
  let time_min f =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let failed = ref false in
  let rows =
    List.map
      (fun name ->
        let w = Workloads.Registry.find_exn name in
        let src = Workloads.Registry.default_source w in
        (* capture once, untimed; both timed paths below produce the
           same Report_summary from scratch *)
        let _report, record = Jrpm.Replay.capture_run ~name src in
        let container = Trace_store.Writer.container [ record ] in
        let interp_s = time_min (fun () -> ignore (Jrpm.Pipeline.run ~name src)) in
        let outcomes = ref [] in
        let replay_s =
          time_min (fun () ->
              let src = Trace_store.Bytesrc.of_string container in
              outcomes :=
                List.map (Jrpm.Replay.replay_entry ~src)
                  (Trace_store.Index.of_src src))
        in
        let profile_s =
          time_min (fun () -> ignore (Jrpm.Pipeline.profile_only src))
        in
        let decode_s =
          time_min (fun () ->
              let rd = Trace_store.Reader.of_string container in
              ignore (Trace_store.Reader.next_record rd);
              ignore
                (Trace_store.Reader.replay rd Hydra.Trace.null_sink
                  : Trace_store.Reader.replay_stats))
        in
        let o = List.hd !outcomes in
        if not o.Jrpm.Replay.matches then begin
          failed := true;
          Printf.eprintf "replay bench: %s diverged from interpretation\n" name
        end;
        let speedup = interp_s /. replay_s in
        let ok = speedup >= replay_speedup_floor in
        if not ok then failed := true;
        [
          name;
          string_of_int o.Jrpm.Replay.events;
          Printf.sprintf "%.1fM"
            (float_of_int o.Jrpm.Replay.events /. decode_s /. 1e6);
          Printf.sprintf "%.3f" interp_s;
          Printf.sprintf "%.3f" replay_s;
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%.1fx" (profile_s /. replay_s);
          (if ok then "ok" else "UNDER FLOOR");
        ])
      names
  in
  Util.Text_table.print
    ~aligns:
      Util.Text_table.[ Left; Right; Right; Right; Right; Right; Right; Left ]
    ~header:
      [
        "benchmark"; "events"; "decode ev/s"; "pipeline s"; "replay s";
        "speedup"; "vs profile"; "status";
      ]
    rows;
  if !failed then begin
    prerr_endline
      (Printf.sprintf "replay bench: below the %.0fx replay speedup floor"
         replay_speedup_floor);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Scheduler benchmark (`bench -- sched`): does record-sharded
   parallel decode beat the one-core decoder?

   It replays a replicated capture container through the null sink
   sequentially (one reader pass, the single-core decode path) and
   record-sharded across 4 decoder workers; the relative speedup is
   gated only when the machine actually has >= 4 cores, so the smoke
   gate stays meaningful on small CI runners while the absolute
   events/s numbers land in the table either way. *)

let sched_decode_floor = 1.4

let sched_bench ~smoke () =
  section
    (if smoke then "Scheduler benchmark (smoke: parallel decode floor)"
     else "Scheduler benchmark (record-sharded parallel decode)");
  if not Jrpm.Scheduler.fork_available then begin
    print_endline "fork unavailable on this platform; nothing to measure";
    exit 0
  end;
  let repeats = if smoke then 2 else 3 in
  let time_min f =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let failed = ref false in
  let names =
    if smoke then [ "BitOps"; "fft" ]
    else [ "BitOps"; "Huffman"; "compress"; "fft"; "NeuralNet" ]
  in
  let base_records =
    List.map
      (fun name ->
        let w = Workloads.Registry.find_exn name in
        let src = Workloads.Registry.default_source w in
        let _report, record = Jrpm.Replay.capture_run ~name src in
        record)
      names
  in
  let copies = 4 in
  let records = List.concat (List.init copies (fun _ -> base_records)) in
  let container = Trace_store.Writer.container records in
  let entries = Trace_store.Index.of_string container in
  let total_events =
    List.fold_left
      (fun acc (e : Trace_store.Index.entry) -> acc + e.Trace_store.Index.events)
      0 entries
  in
  let seq_s =
    time_min (fun () ->
        let rd = Trace_store.Reader.of_string container in
        let rec loop () =
          match Trace_store.Reader.next_record rd with
          | None -> ()
          | Some _ ->
              ignore
                (Trace_store.Reader.replay rd Hydra.Trace.null_sink
                  : Trace_store.Reader.replay_stats);
              loop ()
        in
        loop ())
  in
  let decode_entry _ (e : Trace_store.Index.entry) =
    let rd = Trace_store.Reader.of_string container in
    ignore (Trace_store.Reader.seek_record rd ~offset:e.Trace_store.Index.offset);
    (Trace_store.Reader.replay rd Hydra.Trace.null_sink).Trace_store.Reader
      .events
  in
  let decode_jobs = 4 in
  let par_events = ref 0 in
  let par_s =
    time_min (fun () ->
        let counts, _ =
          Jrpm.Scheduler.map_stats ~jobs:decode_jobs
            ~label:(fun _ (e : Trace_store.Index.entry) ->
              "record " ^ e.Trace_store.Index.name)
            decode_entry entries
        in
        par_events := List.fold_left ( + ) 0 counts)
  in
  if !par_events <> total_events then begin
    failed := true;
    Printf.eprintf "sched bench: parallel decode saw %d events, index says %d\n"
      !par_events total_events
  end;
  let seq_evps = float_of_int total_events /. seq_s in
  let par_evps = float_of_int total_events /. par_s in
  let decode_speedup = par_evps /. seq_evps in
  let cores = try Domain.recommended_domain_count () with _ -> 1 in
  let gated = cores >= 4 in
  let decode_ok = (not gated) || decode_speedup >= sched_decode_floor in
  if not decode_ok then failed := true;
  Printf.printf "\n%d records (%d workloads x %d copies), %d events total\n\n"
    (List.length entries) (List.length names) copies total_events;
  Util.Text_table.print
    ~aligns:Util.Text_table.[ Left; Right; Right; Right; Left ]
    ~header:[ "decode path"; "wall s"; "events/s"; "speedup"; "status" ]
    [
      [
        "sequential (1 core)";
        Printf.sprintf "%.3f" seq_s;
        Printf.sprintf "%.1fM" (seq_evps /. 1e6);
        "1.0x";
        "";
      ];
      [
        Printf.sprintf "record-sharded (%d workers)" decode_jobs;
        Printf.sprintf "%.3f" par_s;
        Printf.sprintf "%.1fM" (par_evps /. 1e6);
        Printf.sprintf "%.1fx" decode_speedup;
        (if not gated then "not gated (<4 cores)"
         else if decode_ok then "ok"
         else "UNDER FLOOR");
      ];
    ];
  if !failed then begin
    prerr_endline
      (Printf.sprintf
         "sched bench: below the decode floor (>= %.1fx on >=4 cores)"
         sched_decode_floor);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve benchmark (`bench -- serve`): what does the resident daemon's
   warm pool buy over forking a fresh replay process per request?

   The one-shot path pays per request for a process fork, a fresh
   container mapping, and a fresh worker-pool spawn; `jrpm serve` pays
   them once and amortizes across requests, answering each replay from
   the long-lived pool and the LRU mapping cache. The container is
   deliberately small (tiny records) so per-request setup dominates
   decode work — the worst case for fork-per-call and precisely what
   the daemon exists to amortize. Warm throughput is gated
   (>= serve_warm_floor x fork-per-call) only on >= 4 core machines,
   like the sched decode gate. *)

let serve_warm_floor = 2.0

let serve_bench ~smoke () =
  section
    (if smoke then "Serve benchmark (smoke: warm-pool floor)"
     else "Serve benchmark (resident daemon vs fork-per-call)");
  if not Jrpm.Scheduler.fork_available then begin
    print_endline "fork unavailable on this platform; nothing to measure";
    exit 0
  end;
  let requests = if smoke then 8 else 20 in
  let jobs = 2 in
  let capture name =
    let w = Workloads.Registry.find_exn name in
    let src = Workloads.Registry.default_source w in
    let _report, record = Jrpm.Replay.capture_run ~name src in
    record
  in
  let records = List.init 3 (fun _ -> capture "fft") in
  let container = Trace_store.Writer.container records in
  let path = Filename.temp_file "jrpm_serve" ".jtrc" in
  let sock = Filename.temp_file "jrpm_serve" ".sock" in
  Sys.remove sock;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; sock ])
    (fun () ->
      Trace_store.Atomic_io.write_string ~path container;
      Printf.printf "\n%d tiny records, %d bytes on disk, %d requests\n\n"
        (List.length records) (String.length container) requests;
      let failed = ref false in
      (* -------- fork-per-call: the one-shot CLI cost model -------- *)
      let one_shot () =
        match Unix.fork () with
        | 0 ->
            (match
               Jrpm.Daemon.execute ~jobs
                 (Jrpm.Daemon.Request (Jrpm.Daemon.Replay { path; record = None }))
             with
            | result ->
                Unix._exit
                  (if Obs.Json.member "matches" result = Some (Obs.Json.Bool true)
                   then 0
                   else 1)
            | exception _ -> Unix._exit 1)
        | pid -> (
            match snd (Unix.waitpid [] pid) with
            | Unix.WEXITED 0 -> ()
            | _ ->
                failed := true;
                prerr_endline "serve bench: one-shot replay child failed")
      in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to requests do
        one_shot ()
      done;
      let cold_s = Unix.gettimeofday () -. t0 in
      (* -------- warm daemon: one pool + cached mapping -------- *)
      let daemon_pid =
        match Unix.fork () with
        | 0 ->
            (try Jrpm.Daemon.serve ~jobs (Jrpm.Daemon.Socket sock)
             with _ -> ());
            Unix._exit 0
        | pid -> pid
      in
      let client =
        let rec connect tries =
          match Jrpm.Daemon.Client.connect sock with
          | c -> c
          | exception Failure _ when tries > 0 ->
              Unix.sleepf 0.05;
              connect (tries - 1)
        in
        connect 100
      in
      let replay_rpc () =
        let r =
          Jrpm.Daemon.Client.rpc client
            (Jrpm.Daemon.Replay { path; record = None })
        in
        match r.Jrpm.Daemon.rsp with
        | Ok _ -> ()
        | Error msg ->
            failed := true;
            Printf.eprintf "serve bench: daemon replay failed: %s\n" msg
      in
      replay_rpc () (* warm the mapping cache and the pool, untimed *);
      let t0 = Unix.gettimeofday () in
      for _ = 1 to requests do
        replay_rpc ()
      done;
      let warm_s = Unix.gettimeofday () -. t0 in
      (match Jrpm.Daemon.Client.rpc client Jrpm.Daemon.Shutdown with
      | _ -> ()
      | exception Failure _ -> ());
      Jrpm.Daemon.Client.close client;
      ignore (Unix.waitpid [] daemon_pid);
      let cold_rps = float_of_int requests /. cold_s in
      let warm_rps = float_of_int requests /. warm_s in
      let speedup = cold_s /. warm_s in
      let cores = Jrpm.Scheduler.core_count () in
      let gated = cores >= 4 in
      let ok = (not gated) || speedup >= serve_warm_floor in
      if not ok then failed := true;
      Util.Text_table.print
        ~aligns:Util.Text_table.[ Left; Right; Right; Right; Left ]
        ~header:[ "replay service"; "wall s"; "req/s"; "speedup"; "status" ]
        [
          [
            "fork per call";
            Printf.sprintf "%.3f" cold_s;
            Printf.sprintf "%.1f" cold_rps;
            "1.0x";
            "";
          ];
          [
            "warm daemon pool";
            Printf.sprintf "%.3f" warm_s;
            Printf.sprintf "%.1f" warm_rps;
            Printf.sprintf "%.2fx" speedup;
            (if not gated then "not gated (<4 cores)"
             else if ok then "ok"
             else "UNDER FLOOR");
          ];
        ];
      if !failed then begin
        prerr_endline
          (Printf.sprintf
             "serve bench: below the %.1fx warm-pool floor (>=4 cores)"
             serve_warm_floor);
        exit 1
      end)

(* ------------------------------------------------------------------ *)

let () =
  let has_arg a = Array.exists (String.equal a) Sys.argv in
  let string_arg name default =
    let v = ref default in
    Array.iteri
      (fun i a ->
        let eq = name ^ "=" in
        if a = name && i + 1 < Array.length Sys.argv then v := Sys.argv.(i + 1)
        else if String.length a > String.length eq
                && String.sub a 0 (String.length eq) = eq then
          v :=
            String.sub a (String.length eq) (String.length a - String.length eq))
      Sys.argv;
    !v
  in
  (* a worker count must be a positive integer: `--jobs 0`, negatives,
     and non-numbers are user errors, not requests for the default *)
  let jobs_arg () =
    match string_arg "--jobs" "" with
    | "" -> Jrpm.Scheduler.default_jobs ()
    | s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | _ ->
            Printf.eprintf
              "bench: invalid --jobs %S (expected a positive integer)\n" s;
            exit 2)
  in
  if has_arg "replay" then begin
    replay_bench ~smoke:(has_arg "--smoke") ();
    exit 0
  end;
  if has_arg "sched" then begin
    sched_bench ~smoke:(has_arg "--smoke") ();
    exit 0
  end;
  if has_arg "serve" then begin
    serve_bench ~smoke:(has_arg "--smoke") ();
    exit 0
  end;
  observe_phases := has_arg "profile";
  sweep_jobs := jobs_arg ();
  table1 ();
  table2 ();
  figure3 ();
  figure4 ();
  table5 ();
  Printf.printf
    "\n(running the 26-benchmark suite through the full pipeline...)\n%!";
  table3 ();
  table6 ();
  figure6 ();
  figure9 ();
  figure10 ();
  figure11 ();
  method_coverage ();
  ablation_sync ();
  if !observe_phases then pipeline_phases ();
  Printf.printf "\nDone.\n"
