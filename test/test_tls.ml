(* TLS simulator tests: speculative execution must preserve sequential
   semantics under violations, restarts, reductions, inductors,
   globalized carried locals, early exits, and zero-trip loops — and
   must actually speed up dependence-free loops. *)

let compile_both ?(optimize = false) ?selected src =
  let tac = Ir.Lower.compile src in
  let tac = if optimize then Compiler.Opt.program tac else tac in
  let table = Compiler.Stl_table.build tac in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let selected =
    match selected with
    | Some l -> l
    | None ->
        (* select every traced candidate that is a root loop, leaving the
           correctness machinery to sort out the rest *)
        Array.to_list table.Compiler.Stl_table.stls
        |> List.filter_map (fun (s : Compiler.Stl_table.stl) ->
               if s.Compiler.Stl_table.traced && s.Compiler.Stl_table.static_depth = 1
               then Some s.Compiler.Stl_table.id
               else None)
  in
  let tls =
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected }) table tac
  in
  (plain, tls)

let outputs_of_seq prog =
  List.map Ir.Value.to_string (Hydra.Seq_interp.run prog).Hydra.Seq_interp.output

let outputs_of_tls prog =
  List.map Ir.Value.to_string (Hydra.Tls_sim.run prog).Hydra.Tls_sim.output

let check_equiv ?optimize ?selected name src =
  Alcotest.test_case name `Quick (fun () ->
      let plain, tls = compile_both ?optimize ?selected src in
      Alcotest.(check (list string))
        (name ^ " output") (outputs_of_seq plain) (outputs_of_tls tls))

(* globals sit at addresses 1..5 and [fl]'s payload starts at 7, so
   [fl[-5]] is the cell holding [a] *)
let float_base_src =
  "float[] fl; int[] a; int[] b; int[] d; int[] nx;\n\
   def main() { fl = new float[64]; a = new int[1]; a[0] = 7; b = new int[64]; d = new int[64]; nx = new int[1]; nx[0] = 0;\n\
   for (int i = 0; i < 60; i = i + 1) { int t = 0; int k = 0; while (k < 5) { t = t + d[k]; k = k + 1; }\n\
   int j = nx[0]; fl[j] = 2.5; b[i] = a[0] + t; nx[0] = -5; int m = 0; while (m < 30) { t = t + d[m]; m = m + 1; }\n\
   nx[0] = i; b[i] = b[i] + t; }\n\
   print_int(b[59]); }"

let equivalence_cases =
  [
    check_equiv "independent writes"
      "int[] a;\n\
       def main() { a = new int[200]; for (int i = 0; i < 200; i = i + 1) { a[i] = i * 3; } print_int(a[199]); }";
    check_equiv "serial heap chain (violation storm)"
      "int[] a;\n\
       def main() { a = new int[300]; a[0] = 1; for (int i = 1; i < 300; i = i + 1) { a[i] = a[i-1] * 5 % 97 + 1; } print_int(a[299]); }";
    check_equiv "sum reduction"
      "int[] a;\n\
       def main() { a = new int[100]; for (int i = 0; i < 100; i = i + 1) { a[i] = i; } int s = 0; for (int j = 0; j < 100; j = j + 1) { s = s + a[j]; } print_int(s); }";
    check_equiv "float reduction keeps order"
      "float[] a;\n\
       def main() { a = new float[64]; for (int i = 0; i < 64; i = i + 1) { a[i] = sin(i2f(i)); } float s = 0.0; for (int j = 0; j < 64; j = j + 1) { s = s + a[j]; } print_float(s); }";
    check_equiv "min/max reductions"
      "int[] a;\n\
       def main() { a = new int[80]; for (int i = 0; i < 80; i = i + 1) { a[i] = (i * 37) % 53; } int mn = 99999; int mx = -99999; for (int j = 0; j < 80; j = j + 1) { mn = imin(mn, a[j]); mx = imax(mx, a[j]); } print_int(mn); print_int(mx); }";
    check_equiv "inductor live after loop"
      "def main() { int i = 0; int s = 0; while (i < 57) { s = s + 2; i = i + 3; } print_int(i); print_int(s); }";
    check_equiv "carried local globalized"
      "int[] a;\n\
       def main() { a = new int[60]; for (int i = 0; i < 60; i = i + 1) { a[i] = i % 7; } int carry = 0; for (int j = 0; j < 60; j = j + 1) { if (a[j] > 3) { carry = carry + a[j]; } } print_int(carry); }";
    check_equiv "private live-out (last value)"
      "int[] a;\n\
       def main() { a = new int[40]; for (int i = 0; i < 40; i = i + 1) { a[i] = i * i % 31; } int last = -1; for (int j = 0; j < 40; j = j + 1) { last = a[j]; } print_int(last); }";
    check_equiv "break exit"
      "int[] a;\n\
       def main() { a = new int[500]; a[321] = 9; int at = -1; for (int i = 0; i < 500; i = i + 1) { if (a[i] == 9) { at = i; break; } } print_int(at); }";
    check_equiv "zero-trip loop"
      "def main() { int n = 0; int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } print_int(s); }";
    check_equiv "single-trip loop"
      "def main() { int s = 0; for (int i = 0; i < 1; i = i + 1) { s = s + 41; } print_int(s + 1); }";
    check_equiv "calls inside threads"
      "def work(int x) : int { int acc = 0; for (int k = 0; k < x % 5 + 1; k = k + 1) { acc = acc + k * x; } return acc; }\n\
       int[] out;\n\
       def main() { out = new int[50]; for (int i = 0; i < 50; i = i + 1) { out[i] = work(i); } int s = 0; for (int j = 0; j < 50; j = j + 1) { s = s + out[j]; } print_int(s); }";
    check_equiv "loop entered repeatedly"
      "int[] a;\n\
       def main() { a = new int[30]; int total = 0; for (int r = 0; r < 5; r = r + 1) { int s = 0; for (int i = 0; i < 30; i = i + 1) { a[i] = a[i] + r; s = s + a[i]; } total = total + s; } print_int(total); }";
    check_equiv "prints inside speculative threads (ordering)"
      "def main() { for (int i = 0; i < 8; i = i + 1) { print_int(i * 10); } }";
    check_equiv "misspeculated threads read garbage safely"
      "int[] a;\n\
       int in_p;\n\
       def main() { a = new int[100]; for (int i = 0; i < 100; i = i + 1) { a[i] = i % 9 + 1; } in_p = 0; int n = 0; while (in_p < 100) { in_p = in_p + a[in_p]; n = n + 1; } print_int(n); print_int(in_p); }";
    (* a younger thread reads the older one's short-lived negative index,
       forwarded from its write buffer, and loads from a negative address
       before the final store violates it: a speculative trap, not a
       simulator crash *)
    check_equiv "misspeculated negative-address load squashes"
      "int[] a; int[] b; int[] nx;\n\
       def main() { a = new int[64]; b = new int[64]; nx = new int[1]; nx[0] = 0;\n\
       for (int i = 0; i < 60; i = i + 1) { int t = 0; int k = 0; while (k < 5) { t = t + a[k]; k = k + 1; }\n\
       int j = nx[0]; b[i] = a[j] + t; nx[0] = -100000000; int m = 0; while (m < 30) { t = t + a[m]; m = m + 1; }\n\
       nx[0] = i; b[i] = b[i] + t; }\n\
       print_int(b[59]); }";
    (* the same forwarded short-lived negative value, used as the size
       of an allocation *)
    check_equiv "misspeculated negative allocation size squashes"
      "int[] a; int[] b; int[] nx; int[] c;\n\
       def main() { a = new int[64]; b = new int[64]; nx = new int[1]; nx[0] = 0;\n\
       for (int i = 0; i < 60; i = i + 1) { int t = 0; int k = 0; while (k < 5) { t = t + a[k]; k = k + 1; }\n\
       int j = nx[0]; c = new int[j + 1]; nx[0] = -100; int m = 0; while (m < 30) { t = t + a[m]; m = m + 1; }\n\
       nx[0] = i; b[i] = c[0] + t; }\n\
       print_int(b[59]); }";
    (* the forwarded index points a float-array store at the global cell
       that holds array [a]'s base, and the thread reads that base back
       from its own write buffer as a Float: optimized, [a[0]] loads
       through it directly; unoptimized, the Float first meets the add
       of the element offset *)
    check_equiv ~optimize:true "misspeculated float address squashes"
      float_base_src;
    check_equiv "misspeculated float ALU operand squashes" float_base_src;
  ]

(* Dependence-free loops actually speed up (and never slow down much). *)
let test_speedup_parallel_loop () =
  let plain, tls =
    compile_both
      "int[] a;\n\
       def main() { a = new int[4000]; for (int i = 0; i < 4000; i = i + 1) { a[i] = i * i % 1000; } print_int(a[3999]); }"
  in
  let sc = (Hydra.Seq_interp.run plain).Hydra.Seq_interp.cycles in
  let tr = Hydra.Tls_sim.run tls in
  let speedup = float_of_int sc /. float_of_int tr.Hydra.Tls_sim.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f in (2.5, 4.0]" speedup)
    true
    (speedup > 2.5 && speedup <= 4.05);
  Alcotest.(check int) "no violations" 0 tr.Hydra.Tls_sim.stats.violations

let test_serial_chain_has_violations () =
  let _, tls =
    compile_both
      "int[] a;\n\
       def main() { a = new int[500]; a[0] = 1; for (int i = 1; i < 500; i = i + 1) { a[i] = a[i-1] + 1; } print_int(a[499]); }"
  in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check bool) "violations occurred" true
    (tr.Hydra.Tls_sim.stats.violations > 50)

let test_forwarding_counted () =
  (* store early in iteration i, load it late in iteration i+1: by the
     time the successor loads, the predecessor has buffered but not yet
     committed the value -> served by cross-thread forwarding *)
  let _, tls =
    compile_both
      "int[] a;\n\
       int[] b;\n\
       def main() {\n\
       a = new int[400]; b = new int[400];\n\
       for (int i = 1; i < 400; i = i + 1) {\n\
       a[i] = i * 3;\n\
       int t = i;\n\
       t = t * 5 % 997; t = t * 7 % 991; t = t * 11 % 983;\n\
       t = t * 13 % 977; t = t * 17 % 971; t = t * 19 % 967;\n\
       b[i] = t + a[i - 1];\n\
       }\n\
       print_int(b[399]);\n\
       }"
  in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check bool) "some forwarded loads" true
    (tr.Hydra.Tls_sim.stats.forwarded_loads > 0)

let test_spec_stats_sane () =
  let _, tls =
    compile_both
      "int[] a;\n\
       def main() { a = new int[100]; for (int i = 0; i < 100; i = i + 1) { a[i] = i; } print_int(a[99]); }"
  in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check int) "one loop entered" 1 tr.Hydra.Tls_sim.stats.loops_entered;
  (* 100 iterations + the exit-taking thread *)
  Alcotest.(check bool) "committed ~101 threads" true
    (tr.Hydra.Tls_sim.stats.threads_committed >= 100
    && tr.Hydra.Tls_sim.stats.threads_committed <= 102);
  Alcotest.(check bool) "spec cycles accounted" true
    (tr.Hydra.Tls_sim.stats.spec_cycles > 0)

(* Overflow stall: a loop whose per-iteration footprint exceeds the
   store buffer serializes but stays correct. *)
let test_overflow_stall () =
  let src =
    "int[] a;\n\
     def main() {\n\
     a = new int[40000];\n\
     for (int i = 0; i < 5; i = i + 1) {\n\
     for (int j = 0; j < 8000; j = j + 1) { a[i * 8000 + j] = i + j; }\n\
     }\n\
     print_int(a[39999]);\n\
     }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  (* select the OUTER loop: each thread writes 8000 words = 1000 lines
     >> the 64-line store buffer *)
  let outer =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.find (fun (s : Compiler.Stl_table.stl) -> s.Compiler.Stl_table.static_depth = 1)
  in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let tls =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Tls { selected = [ outer.Compiler.Stl_table.id ] })
      table tac
  in
  let sr = Hydra.Seq_interp.run plain in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check (list string)) "correct under stalls"
    (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  Alcotest.(check bool) "threads stalled" true
    (tr.Hydra.Tls_sim.stats.overflow_stalls > 0);
  Alcotest.(check bool) "little speedup" true
    (float_of_int sr.Hydra.Seq_interp.cycles
     /. float_of_int tr.Hydra.Tls_sim.cycles
    < 2.)

(* A selected loop in a callee, entered from a caller loop: speculation
   starts and ends on every call. *)
let test_callee_stl () =
  let src =
    "int[] a;\n\
     def fill(int base) {\n\
     for (int i = 0; i < 50; i = i + 1) {\n\
     a[base + i] = base + i * 2;\n\
     }\n\
     }\n\
     def main() {\n\
     a = new int[500];\n\
     for (int r = 0; r < 10; r = r + 1) {\n\
     fill(r * 50);\n\
     }\n\
     int s = 0;\n\
     for (int k = 0; k < 500; k = k + 1) { s = s + a[k]; }\n\
     print_int(s);\n\
     }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  (* select only fill's loop *)
  let fill_stl =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.find (fun (s : Compiler.Stl_table.stl) ->
           s.Compiler.Stl_table.func_name = "fill")
  in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let tls =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Tls { selected = [ fill_stl.Compiler.Stl_table.id ] })
      table tac
  in
  let sr = Hydra.Seq_interp.run plain in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check (list string)) "output"
    (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  Alcotest.(check int) "10 speculative activations" 10
    tr.Hydra.Tls_sim.stats.loops_entered

(* Only one decomposition can be active at a time (paper constraint):
   a selected caller loop dynamically contains a selected callee loop;
   the inner one must run sequentially inside the threads, and results
   stay correct. *)
let test_non_reentrant_nesting () =
  let src =
    "int[] a;\n\
     def inner_sum(int base) : int {\n\
     int s = 0;\n\
     for (int i = 0; i < 20; i = i + 1) {\n\
     s = s + a[base + i];\n\
     }\n\
     return s;\n\
     }\n\
     def main() {\n\
     a = new int[400];\n\
     for (int i = 0; i < 400; i = i + 1) { a[i] = i % 13; }\n\
     int total = 0;\n\
     for (int r = 0; r < 20; r = r + 1) {\n\
     total = total + inner_sum(r * 20);\n\
     }\n\
     print_int(total);\n\
     }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  let inner =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.find (fun (s : Compiler.Stl_table.stl) ->
           s.Compiler.Stl_table.func_name = "inner_sum")
  in
  (* try every main loop paired with the inner selection *)
  let main_loops =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.filter (fun (s : Compiler.Stl_table.stl) ->
           s.Compiler.Stl_table.func_name = "main")
  in
  let plain = Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac in
  let sr = Hydra.Seq_interp.run plain in
  List.iter
    (fun (m : Compiler.Stl_table.stl) ->
      let tls =
        Compiler.Codegen.generate
          ~mode:
            (Compiler.Codegen.Tls
               {
                 selected = [ m.Compiler.Stl_table.id; inner.Compiler.Stl_table.id ];
               })
          table tac
      in
      let tr = Hydra.Tls_sim.run tls in
      Alcotest.(check (list string))
        (Printf.sprintf "correct with main loop %d + inner both selected"
           m.Compiler.Stl_table.id)
        (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
        (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output))
    main_loops

(* Selecting nothing produces a program equivalent to plain. *)
let test_empty_selection () =
  let src =
    "def main() { int s = 0; for (int i = 0; i < 30; i = i + 1) { s = s + i; } print_int(s); }"
  in
  let tac = Ir.Lower.compile src in
  let table = Compiler.Stl_table.build tac in
  let tls =
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected = [] }) table tac
  in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check (list string)) "output" [ "435" ]
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  Alcotest.(check int) "no speculation" 0 tr.Hydra.Tls_sim.stats.loops_entered

(* Learned synchronization (the [~sync:true] extension): correctness is
   preserved and violations drop on a store-early / load-late chain. *)
let sync_src =
  "int[] a;\n\
   int[] b;\n\
   def main() {\n\
   a = new int[600]; b = new int[600];\n\
   for (int i = 1; i < 600; i = i + 1) {\n\
   int t = i;\n\
   t = t * 5 % 997; t = t * 7 % 991; t = t * 11 % 983;\n\
   a[i] = a[i - 1] + t % 7;\n\
   b[i] = t;\n\
   }\n\
   print_int(a[599]);\n\
   print_int(b[599]);\n\
   }"

let test_sync_correct_and_fewer_violations () =
  let plain, tls = compile_both sync_src in
  let seq_out = outputs_of_seq plain in
  let nosync = Hydra.Tls_sim.run tls in
  let wsync = Hydra.Tls_sim.run ~sync:true tls in
  Alcotest.(check (list string)) "sync output correct" seq_out
    (List.map Ir.Value.to_string wsync.Hydra.Tls_sim.output);
  Alcotest.(check bool)
    (Printf.sprintf "fewer violations (%d -> %d)"
       nosync.Hydra.Tls_sim.stats.violations wsync.Hydra.Tls_sim.stats.violations)
    true
    (wsync.Hydra.Tls_sim.stats.violations
    < nosync.Hydra.Tls_sim.stats.violations);
  Alcotest.(check bool) "sync stalls recorded" true
    (wsync.Hydra.Tls_sim.stats.sync_stalls > 0)

let test_sync_no_effect_when_clean () =
  (* a dependence-free loop never learns anything *)
  let plain, tls =
    compile_both
      "int[] a;\n\
       def main() { a = new int[300]; for (int i = 0; i < 300; i = i + 1) { a[i] = i; } print_int(a[299]); }"
  in
  let wsync = Hydra.Tls_sim.run ~sync:true tls in
  Alcotest.(check (list string)) "output" (outputs_of_seq plain)
    (List.map Ir.Value.to_string wsync.Hydra.Tls_sim.output);
  Alcotest.(check int) "no sync stalls" 0 wsync.Hydra.Tls_sim.stats.sync_stalls

(* qcheck: sync mode also always matches sequential output. *)
let prop_sync_equiv =
  QCheck.Test.make ~name:"sync tls == sequential on random inputs" ~count:15
    QCheck.(pair (int_range 2 50) (int_range 0 1000))
    (fun (n, salt) ->
      let src =
        Printf.sprintf
          "int[] a;\n\
           def main() {\n\
           a = new int[%d];\n\
           a[0] = %d;\n\
           for (int j = 1; j < %d; j = j + 1) {\n\
           a[j] = (a[j - 1] * 13 + j) %% 101;\n\
           }\n\
           print_int(a[%d]);\n\
           }"
          n salt n (n - 1)
      in
      let plain, tls = compile_both src in
      outputs_of_seq plain
      = List.map Ir.Value.to_string (Hydra.Tls_sim.run ~sync:true tls).Hydra.Tls_sim.output)

(* qcheck: for random small arrays and a mixed workload template, TLS
   execution always matches sequential output. *)
let prop_tls_equiv =
  QCheck.Test.make ~name:"tls == sequential on random inputs" ~count:25
    QCheck.(pair (int_range 2 60) (int_range 0 1000))
    (fun (n, salt) ->
      let src =
        Printf.sprintf
          "int[] a;\n\
           def main() {\n\
           a = new int[%d];\n\
           for (int i = 0; i < %d; i = i + 1) { a[i] = (i * 7 + %d) %% 13; }\n\
           int s = 0;\n\
           int carry = 0;\n\
           for (int j = 0; j < %d; j = j + 1) {\n\
           if (a[j] %% 2 == 0) { carry = carry + a[j]; }\n\
           s = s + carry;\n\
           a[j] = s %% 31;\n\
           }\n\
           print_int(s);\n\
           print_int(carry);\n\
           print_int(a[%d]);\n\
           }"
          n n salt n (n - 1)
      in
      let plain, tls = compile_both src in
      outputs_of_seq plain = outputs_of_tls tls)

(* ---------------- golden simulator runs ---------------- *)

(* Pins the simulator's cycle accounting on paths the default sweep
   never takes: 8 CPUs, 2-line speculative buffers (overflow stalls)
   and learned synchronization (sync stalls). Each workload's TLS build
   comes from the default-hardware pipeline selection; [golden_tls_runs]
   renders one line per (workload, config, sync) run plus a digest of
   fft's default-config event stream. test/golden_tls_runs.json is this
   function's output, written by the simulator before its hot-loop
   rewrite, so any change to step order or accounting shows up here.
   The ["violation_runs"] lines were written by the simulator before its
   register files were unboxed: they run the three registry workloads
   with the most violations at 2 and 8 CPUs, so thread restarts (seed
   frame refills) and passes that only advance time are pinned. *)
let golden_tls_workloads = [ "Assignment"; "deltaBlue"; "fft"; "LuFactor" ]

let golden_tls_configs =
  let d = Hydra.Config.default in
  [
    ("default", d);
    ("cpus8", { d with Hydra.Config.num_cpus = 8 });
    ( "buffers2",
      { d with Hydra.Config.store_buffer_lines = 2; load_buffer_lines = 2 } );
  ]

let violation_tls_workloads = [ "h263dec"; "Huffman"; "jLex" ]

let violation_tls_configs =
  let d = Hydra.Config.default in
  [
    ("cpus2", { d with Hydra.Config.num_cpus = 2 });
    ("cpus8", { d with Hydra.Config.num_cpus = 8 });
  ]

let md5_lines l = Digest.to_hex (Digest.string (String.concat "\n" l))

let golden_tls_runs () =
  let tls_program name =
    let w = Workloads.Registry.find_exn name in
    let r = Jrpm.Pipeline.run ~name (Workloads.Registry.default_source w) in
    let selected =
      List.map
        (fun (c : Test_core.Analyzer.choice) -> c.chosen_stl)
        r.Jrpm.Pipeline.selection.Test_core.Analyzer.chosen
    in
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected })
      r.Jrpm.Pipeline.table r.Jrpm.Pipeline.tac
  in
  let progs = List.map (fun n -> (n, tls_program n)) golden_tls_workloads in
  let run_line (name, prog) (label, config) sync =
    let r = Hydra.Tls_sim.run ~config ~sync prog in
    let s = r.Hydra.Tls_sim.stats in
    Printf.sprintf
      "{\"workload\": %S, \"config\": %S, \"sync\": %b, \"cycles\": %d, \
       \"threads_committed\": %d, \"violations\": %d, \"overflow_stalls\": %d, \
       \"forwarded_loads\": %d, \"loops_entered\": %d, \"spec_cycles\": %d, \
       \"sync_stalls\": %d, \"output_md5\": %S}"
      name label sync r.Hydra.Tls_sim.cycles s.Hydra.Tls_sim.threads_committed
      s.violations s.overflow_stalls s.forwarded_loads s.loops_entered
      s.spec_cycles s.sync_stalls
      (md5_lines (List.map Ir.Value.to_string r.Hydra.Tls_sim.output))
  in
  let runs progs configs =
    let lines =
      List.concat_map
        (fun wp ->
          List.concat_map
            (fun cfg -> [ run_line wp cfg false; run_line wp cfg true ])
            configs)
        progs
    in
    List.mapi
      (fun i l -> "  " ^ l ^ if i < List.length lines - 1 then "," else "")
      lines
  in
  let violation_progs =
    List.map (fun n -> (n, tls_program n)) violation_tls_workloads
  in
  let events =
    let rc = Obs.Recorder.create ~max_events:max_int () in
    ignore (Hydra.Tls_sim.run ~obs:(Obs.Recorder.sink rc) (List.assoc "fft" progs));
    Obs.Recorder.events rc
  in
  let counts =
    List.filter_map
      (fun label ->
        match List.filter (fun e -> Obs.Event.label e = label) events with
        | [] -> None
        | l -> Some (Printf.sprintf "%S: %d" label (List.length l)))
      Obs.Event.all_labels
  in
  [ "{\"runs\": [" ]
  @ runs progs golden_tls_configs
  @ [ "],"; "\"violation_runs\": [" ]
  @ runs violation_progs violation_tls_configs
  @ [
      "],";
      Printf.sprintf "\"fft_default_events\": {\"labels\": {%s}, \"md5\": %S}"
        (String.concat ", " counts)
        (md5_lines
           (List.map (fun e -> Obs.Json.to_string (Obs.Event.to_json e)) events));
      "}";
    ]

let test_golden_tls_runs () =
  let golden =
    let ic = open_in "golden_tls_runs.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.split_on_char '\n' (String.trim s)
  in
  Alcotest.(check (list string)) "simulator runs match golden" golden
    (golden_tls_runs ())

let suites =
  [
    ("tls.equivalence", equivalence_cases @ [ QCheck_alcotest.to_alcotest prop_tls_equiv ]);
    ( "tls.performance",
      [
        Alcotest.test_case "parallel loop speeds up" `Quick
          test_speedup_parallel_loop;
        Alcotest.test_case "serial chain violates" `Quick
          test_serial_chain_has_violations;
        Alcotest.test_case "store-load forwarding" `Quick test_forwarding_counted;
        Alcotest.test_case "spec stats" `Quick test_spec_stats_sane;
        Alcotest.test_case "overflow stall" `Quick test_overflow_stall;
      ] );
    ( "tls.golden",
      [
        Alcotest.test_case "runs at cpus, buffers and sync points" `Quick
          test_golden_tls_runs;
      ] );
    ( "tls.structure",
      [
        Alcotest.test_case "callee STL" `Quick test_callee_stl;
        Alcotest.test_case "non-reentrant nesting" `Quick
          test_non_reentrant_nesting;
        Alcotest.test_case "empty selection" `Quick test_empty_selection;
      ] );
    ( "tls.sync",
      [
        Alcotest.test_case "correct, fewer violations" `Quick
          test_sync_correct_and_fewer_violations;
        Alcotest.test_case "inert on clean loops" `Quick
          test_sync_no_effect_when_clean;
        QCheck_alcotest.to_alcotest prop_sync_equiv;
      ] );
  ]
