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
(* Outside a selected STL the TLS machine is the sequential machine:
   with nothing selected, [Tls_sim.run] must reproduce the plain build's
   sequential run exactly (cycles, output, heap break and every heap
   cell below it), and a TLS build carries no profiling annotation even
   with every STL selected. Registry programs, built as the pipeline
   builds them. *)
let check_empty_selection_equals_plain (w : Workloads.Workload.t) =
  let name = w.Workloads.Workload.name in
  let tac =
    Compiler.Opt.program (Ir.Lower.compile (Workloads.Registry.default_source w))
  in
  let table = Compiler.Stl_table.build tac in
  let gen mode = Compiler.Codegen.generate ~mode table tac in
  let sr = Hydra.Seq_interp.run (gen Compiler.Codegen.Plain) in
  let tr = Hydra.Tls_sim.run (gen (Compiler.Codegen.Tls { selected = [] })) in
  Alcotest.(check int) (name ^ " cycles") sr.Hydra.Seq_interp.cycles
    tr.Hydra.Tls_sim.cycles;
  Alcotest.(check (list string)) (name ^ " output")
    (List.map Ir.Value.to_string sr.Hydra.Seq_interp.output)
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  let sm = sr.Hydra.Seq_interp.memory and tm = tr.Hydra.Tls_sim.memory in
  let brk = sm.Hydra.Machine.Memory.brk in
  Alcotest.(check int) (name ^ " heap brk") brk tm.Hydra.Machine.Memory.brk;
  let cell (m : Hydra.Machine.Memory.t) i =
    (* bit patterns, so a NaN cell equals itself *)
    match Hydra.Machine.Memory.load m i with
    | Ir.Value.Int n -> Printf.sprintf "%d" n
    | Ir.Value.Float x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)
  in
  for i = 0 to brk - 1 do
    if cell sm i <> cell tm i then
      Alcotest.failf "%s: heap cell %d is %s sequentially, %s under TLS" name i
        (cell sm i) (cell tm i)
  done;
  let all_stls =
    Array.to_list
      (Array.map
         (fun (s : Compiler.Stl_table.stl) -> s.Compiler.Stl_table.id)
         table.Compiler.Stl_table.stls)
  in
  Array.iter
    (fun (f : Hydra.Native.func) ->
      Array.iter
        (fun ins ->
          match ins with
          | Hydra.Native.Sloop _ | Hydra.Native.Eloop _ | Hydra.Native.Eoi _
          | Hydra.Native.Read_stats _ | Hydra.Native.Lwl _ | Hydra.Native.Swl _
            ->
              Alcotest.failf "%s: annotation %a in the TLS build" name
                Hydra.Native.pp_instr ins
          | _ -> ())
        f.Hydra.Native.code)
    (gen (Compiler.Codegen.Tls { selected = all_stls })).Hydra.Native.funcs

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
  Alcotest.(check int) "no speculation" 0 tr.Hydra.Tls_sim.stats.loops_entered;
  List.iter check_empty_selection_equals_plain Workloads.Registry.all

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

(* ---------------- speculative state table ---------------- *)

(* [Tls_sim.Spec_table] against a [Hashtbl] model. A key bound by [Add]
   alone has no value to compare ([None] in the model). Keys mix a small
   range, multiples of 64 (equal modulo every capacity up to 64),
   negatives and arbitrary ints; sequences run up to 300 operations, so
   tables grow past their 8-slot start, and the clear weight varies per
   sequence, so some clear every few operations and reuse generations
   many times. *)
type table_op =
  | Add of int
  | Replace of int * int
  | Find of int
  | Mem of int
  | Length
  | Clear

let print_table_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Length -> "length"
  | Clear -> "clear"

let table_ops_gen =
  let open QCheck.Gen in
  let key =
    frequency
      [
        (4, int_range (-20) 20);
        (3, map (fun m -> m * 64) (int_range (-16) 16));
        (2, int_range 0 400);
        (1, int);
      ]
  in
  int_range 0 30 >>= fun clear_weight ->
  list_size (int_range 0 300)
    (frequency
       [
         (10, map (fun k -> Add k) key);
         (10, map2 (fun k v -> Replace (k, v)) key int);
         (6, map (fun k -> Find k) key);
         (6, map (fun k -> Mem k) key);
         (2, return Length);
         (clear_weight, return Clear);
       ])

let prop_spec_table =
  QCheck.Test.make ~name:"agrees with a Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
       table_ops_gen)
    (fun ops ->
      let module T = Hydra.Tls_sim.Spec_table in
      let t = T.create 4 in
      let model : (int, int option) Hashtbl.t = Hashtbl.create 16 in
      let step = function
        | Add k ->
            T.add t k;
            if not (Hashtbl.mem model k) then Hashtbl.replace model k None;
            true
        | Replace (k, v) ->
            T.replace t k v;
            Hashtbl.replace model k (Some v);
            true
        | Find k -> (
            let i = T.find t k in
            match Hashtbl.find_opt model k with
            | None -> i = -1
            | Some None -> i >= 0 && t.T.keys.(i) = k
            | Some (Some v) -> i >= 0 && t.T.keys.(i) = k && t.T.ints.(i) = v)
        | Mem k -> T.mem t k = Hashtbl.mem model k
        | Length -> T.length t = Hashtbl.length model
        | Clear ->
            T.clear t;
            Hashtbl.reset model;
            true
      in
      List.for_all step ops
      &&
      (* the commit flush's iteration: each live key exactly once *)
      let seen = ref [] in
      T.iter t (fun t i -> seen := t.T.keys.(i) :: !seen);
      List.sort compare !seen
      = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
      && T.length t = Hashtbl.length model)

(* ---------------- run-ahead through frame-private code ---------------- *)

(* A thread runs the frame-private instructions after each step ahead
   of the scheduler. A private instruction that traps must still trap
   at its own cycle, and only as the head; and a thread that never
   leaves private code must still burn fuel. *)

(* Iteration [i] divides by [d[i]], which iteration [i-1] writes at its
   end: every speculative iteration reads a stale 0 and traps, and the
   older iteration's store then restarts it. With [hole], iteration
   [hole-1] skips its store, so iteration [hole] divides by 0 as the
   head. *)
let stale_divisor_src ~hole =
  Printf.sprintf
    "int[] d; int[] q;\n\
     def main() { d = new int[64]; q = new int[64]; d[1] = 1; int s = 0;\n\
     for (int i = 1; i < 40; i = i + 1) { int x = 1000 / d[i]; int k = 0;\n\
     while (k < 6) { x = x + k * i; k = k + 1; }\n\
     q[i] = x; if (i != %d) { d[i + 1] = i + 1; } }\n\
     for (int j = 1; j < 40; j = j + 1) { s = s + q[j]; } print_int(s); }"
    (hole - 1)

let test_stale_divisor_traps_speculatively () =
  let plain, tls = compile_both (stale_divisor_src ~hole:0) in
  let tr = Hydra.Tls_sim.run tls in
  Alcotest.(check (list string)) "speculative output = sequential"
    (outputs_of_seq plain)
    (List.map Ir.Value.to_string tr.Hydra.Tls_sim.output);
  (* measured before the simulator ran ahead *)
  Alcotest.(check int) "cycles" 6773 tr.Hydra.Tls_sim.cycles;
  Alcotest.(check int) "violations" 113 tr.Hydra.Tls_sim.stats.violations

let test_head_division_traps () =
  let plain, tls = compile_both (stale_divisor_src ~hole:7) in
  let trap = Hydra.Machine.Trap "integer division by zero" in
  Alcotest.check_raises "sequential run traps" trap (fun () ->
      ignore (Hydra.Seq_interp.run plain));
  Alcotest.check_raises "the head traps" trap (fun () ->
      ignore (Hydra.Tls_sim.run tls))

let test_private_spin_runs_out_of_fuel () =
  let _, tls =
    compile_both
      "def main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { int x = i;\n\
       while (x >= 0) { x = (x + 3) & 7; } s = s + x; } print_int(s); }"
  in
  Alcotest.(check bool) "outer loop selected" true
    (tls.Hydra.Native.stl_plans <> []);
  let t0 = Unix.gettimeofday () in
  Alcotest.check_raises "fuel runs out" (Hydra.Tls_sim.Out_of_fuel 20_000)
    (fun () -> ignore (Hydra.Tls_sim.run ~fuel:20_000 tls));
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 1.0 then Alcotest.failf "Out_of_fuel took %.2f s" dt

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
   frame refills) and passes that only advance time are pinned.
   The ["fuzz_runs"] lines were written by the simulator before it ran
   ahead through frame-private instructions: generated programs with
   their depth-1 or their depth-2 traced loops selected, at 3 and 8
   CPUs and 2-line buffers as well as the default, shapes the registry
   builds never reach. *)
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

let fuzz_tls_seeds = List.init 20 (fun i -> i + 1)

let fuzz_tls_configs =
  let d = Hydra.Config.default in
  [
    ("default", d);
    ("cpus3", { d with Hydra.Config.num_cpus = 3 });
    ("cpus8", { d with Hydra.Config.num_cpus = 8 });
    ( "buffers2",
      { d with Hydra.Config.store_buffer_lines = 2; load_buffer_lines = 2 } );
  ]

(* the TLS build of generated program [seed] with its traced loops of
   static depth [depth] selected; none when it has no such loop *)
let fuzz_tls_program seed depth =
  let otac =
    Compiler.Opt.program (Ir.Lower.compile (Fuzz_gen.gen_program seed))
  in
  let table = Compiler.Stl_table.build otac in
  let selected =
    Array.to_list table.Compiler.Stl_table.stls
    |> List.filter_map (fun (s : Compiler.Stl_table.stl) ->
           if s.Compiler.Stl_table.traced && s.Compiler.Stl_table.static_depth = depth
           then Some s.Compiler.Stl_table.id
           else None)
  in
  if selected = [] then None
  else
    Some
      (Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected })
         table otac)

let md5_lines l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* a registry workload's TLS build with the default-hardware selection *)
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

let golden_tls_runs () =
  let progs = List.map (fun n -> (n, tls_program n)) golden_tls_workloads in
  let workload_key (n, prog) = (Printf.sprintf "\"workload\": %S" n, prog) in
  let run_line (key, prog) (label, config) sync =
    let r = Hydra.Tls_sim.run ~config ~sync prog in
    let s = r.Hydra.Tls_sim.stats in
    Printf.sprintf
      "{%s, \"config\": %S, \"sync\": %b, \"cycles\": %d, \
       \"threads_committed\": %d, \"violations\": %d, \"overflow_stalls\": %d, \
       \"forwarded_loads\": %d, \"loops_entered\": %d, \"spec_cycles\": %d, \
       \"sync_stalls\": %d, \"output_md5\": %S}"
      key label sync r.Hydra.Tls_sim.cycles s.Hydra.Tls_sim.threads_committed
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
  let fuzz_progs =
    List.concat_map
      (fun seed ->
        List.filter_map
          (fun depth ->
            Option.map
              (fun prog ->
                (Printf.sprintf "\"seed\": %d, \"depth\": %d" seed depth, prog))
              (fuzz_tls_program seed depth))
          [ 1; 2 ])
      fuzz_tls_seeds
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
  @ runs (List.map workload_key progs) golden_tls_configs
  @ [ "],"; "\"violation_runs\": [" ]
  @ runs (List.map workload_key violation_progs) violation_tls_configs
  @ [ "],"; "\"fuzz_runs\": [" ]
  @ runs fuzz_progs fuzz_tls_configs
  @ [
      "],";
      Printf.sprintf "\"fft_default_events\": {\"labels\": {%s}, \"md5\": %S}"
        (String.concat ", " counts)
        (md5_lines
           (List.map (fun e -> Obs.Json.to_string (Obs.Event.to_json e)) events));
      "}";
    ]

(* The host work of a default-hardware pipeline run of two registry
   workloads, as the recorder's [interp.*] and [tls.*] counters. Before
   threads ran ahead through frame-private instructions the TLS counts
   were fft 199_340 passes / 483_257 steps and monteCarlo 157_465 /
   360_005 (and 0 run ahead). Before the plain baseline and the
   base-annotation split were derived from the traced run, the pipeline
   interpreted fft 1_044_591 instructions (plain 338_086, base 353_868,
   traced 352_637) and monteCarlo 1_086_052 (354_014, 366_019,
   366_019). *)
let test_work_counters () =
  List.iter
    (fun (name, instructions, passes, steps, run_ahead) ->
      let rc = Obs.Recorder.create () in
      let w = Workloads.Registry.find_exn name in
      ignore
        (Jrpm.Pipeline.run ~obs:(Obs.Recorder.sink rc) ~name
           (Workloads.Registry.default_source w));
      let m = Obs.Recorder.metrics rc in
      let check counter want =
        Alcotest.(check int) (name ^ " " ^ counter) want
          (Obs.Metrics.counter m counter)
      in
      check "interp.instructions" instructions;
      check "tls.passes" passes;
      check "tls.steps" steps;
      check "tls.run_ahead" run_ahead;
      (* counters only: nothing reaches the event log or [events.*] *)
      Alcotest.(check bool) (name ^ " no work event") true
        (List.for_all
           (fun e ->
             let l = Obs.Event.label e in
             l <> "tls_work" && l <> "interp_work")
           (Obs.Recorder.events rc)))
    [
      ("fft", 352_637, 77_313, 132_527, 361_563);
      ("monteCarlo", 366_019, 23_996, 24_002, 336_003);
    ]

(* [Tls_commit] carries the cycle of the scheduler pass that commits the
   thread, the clock [Tls_violation] uses too: over fft's default run
   every event's [now] is at least the one before, and each speculative
   region's commits (ranks restart at 0) span more than one cycle and
   end before the next region's first commit. Two commits can share a
   cycle: a thread that finished while waiting to become head commits
   in the pass right after its predecessor's, at the same [now]. *)
let test_commit_stamps () =
  let rc = Obs.Recorder.create ~max_events:max_int () in
  ignore (Hydra.Tls_sim.run ~obs:(Obs.Recorder.sink rc) (tls_program "fft"));
  let events = Obs.Recorder.events rc in
  let stamp = function
    | Obs.Event.Tls_commit { now; _ } | Obs.Event.Tls_violation { now; _ } ->
        now
    | e -> Alcotest.failf "unexpected %s event" (Obs.Event.label e)
  in
  ignore
    (List.fold_left
       (fun prev e ->
         let now = stamp e in
         if now < prev then
           Alcotest.failf "%s at %d after an event at %d" (Obs.Event.label e)
             now prev;
         now)
       0 events);
  let regions =
    List.fold_left
      (fun acc e ->
        match (e, acc) with
        | Obs.Event.Tls_commit { rank = 0; now }, _ -> [ now ] :: acc
        | Obs.Event.Tls_commit { now; _ }, r :: rest -> (now :: r) :: rest
        | _ -> acc)
      [] events
    |> List.rev_map List.rev
  in
  Alcotest.(check int) "one commit group per region entered" 514
    (List.length regions);
  let first r = List.hd r and last r = List.hd (List.rev r) in
  List.iteri
    (fun i r ->
      if List.length r > 1 && last r <= first r then
        Alcotest.failf "region %d: all commits at %d" i (first r))
    regions;
  ignore
    (List.fold_left
       (fun prev r ->
         if first r <= prev then
           Alcotest.failf "a region's first commit at %d, the last before at %d"
             (first r) prev;
         last r)
       (-1) regions)

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
        Alcotest.test_case "work counters" `Quick test_work_counters;
        Alcotest.test_case "commit stamps follow the pass clock" `Quick
          test_commit_stamps;
      ] );
    ( "tls.structure",
      [
        Alcotest.test_case "callee STL" `Quick test_callee_stl;
        Alcotest.test_case "non-reentrant nesting" `Quick
          test_non_reentrant_nesting;
        Alcotest.test_case "empty selection" `Quick test_empty_selection;
      ] );
    ( "tls.run_ahead",
      [
        Alcotest.test_case "stale divisor traps speculatively" `Quick
          test_stale_divisor_traps_speculatively;
        Alcotest.test_case "head division traps" `Quick test_head_division_traps;
        Alcotest.test_case "private spin runs out of fuel" `Quick
          test_private_spin_runs_out_of_fuel;
      ] );
    ("tls.spec_table", [ QCheck_alcotest.to_alcotest prop_spec_table ]);
    ( "tls.sync",
      [
        Alcotest.test_case "correct, fewer violations" `Quick
          test_sync_correct_and_fewer_violations;
        Alcotest.test_case "inert on clean loops" `Quick
          test_sync_no_effect_when_clean;
        QCheck_alcotest.to_alcotest prop_sync_equiv;
      ] );
  ]
