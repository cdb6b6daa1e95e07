(* End-to-end semantics of the front end + sequential interpreter:
   compile Javelin source, run it plain, check the printed output. *)

let run_outputs src =
  let prog, _ = Compiler.Codegen.compile_source ~mode:Compiler.Codegen.Plain src in
  let r = Hydra.Seq_interp.run prog in
  List.map Ir.Value.to_string r.Hydra.Seq_interp.output

let check name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) name expected (run_outputs src))

let semantics_cases =
  [
    check "arithmetic" "def main() { print_int(2 + 3 * 4 - 6 / 2); }" [ "11" ];
    check "modulo and shifts"
      "def main() { print_int(17 % 5); print_int(3 << 4); print_int(256 >> 3); }"
      [ "2"; "48"; "32" ];
    check "bitwise"
      "def main() { print_int(12 & 10); print_int(12 | 10); print_int(12 ^ 10); }"
      [ "8"; "14"; "6" ];
    check "comparisons"
      "def main() { print_int(3 < 4); print_int(4 <= 3); print_int(5 == 5); }"
      [ "1"; "0"; "1" ];
    check "unary" "def main() { print_int(-5); print_int(!0); print_int(!7); }"
      [ "-5"; "1"; "0" ];
    check "float arithmetic"
      "def main() { print_float(1.5 * 4.0); print_float(7.0 / 2.0); }"
      [ "6"; "3.5" ];
    check "float builtins"
      "def main() { print_float(sqrt(16.0)); print_float(fabs(-2.5)); print_float(floor(3.9)); }"
      [ "4"; "2.5"; "3" ];
    check "conversions" "def main() { print_int(f2i(3.99)); print_float(i2f(7)); }"
      [ "3"; "7" ];
    check "min max"
      "def main() { print_int(imin(3, -4)); print_int(imax(3, -4)); print_float(fmin(1.0, 2.0)); }"
      [ "-4"; "3"; "1" ];
    check "if else"
      "def main() { int x = 5; if (x > 3) { print_int(1); } else { print_int(0); } }"
      [ "1" ];
    check "while loop"
      "def main() { int i = 0; int s = 0; while (i < 5) { s = s + i; i = i + 1; } print_int(s); }"
      [ "10" ];
    check "do while runs once"
      "def main() { int i = 10; do { print_int(i); i = i + 1; } while (i < 5); }"
      [ "10" ];
    check "for loop"
      "def main() { int s = 0; for (int i = 1; i <= 4; i = i + 1) { s = s * 10 + i; } print_int(s); }"
      [ "1234" ];
    check "break"
      "def main() { int i = 0; while (1) { if (i == 3) { break; } i = i + 1; } print_int(i); }"
      [ "3" ];
    check "continue"
      "def main() { int s = 0; for (int i = 0; i < 6; i = i + 1) { if (i % 2 == 1) { continue; } s = s + i; } print_int(s); }"
      [ "6" ];
    check "short circuit and"
      "def f(int x) : int { print_int(x); return x; }\n\
       def main() { int r = f(0) && f(1); print_int(r); }"
      [ "0"; "0" ];
    check "short circuit or"
      "def f(int x) : int { print_int(x); return x; }\n\
       def main() { int r = f(2) || f(3); print_int(r); }"
      [ "2"; "1" ];
    check "arrays"
      "def main() { int[] a = new int[3]; a[0] = 7; a[2] = a[0] * 2; print_int(a[2]); print_int(a[1]); print_int(length(a)); }"
      [ "14"; "0"; "3" ];
    check "float arrays zeroed"
      "def main() { float[] a = new float[2]; print_float(a[0] + 1.0); }"
      [ "1" ];
    check "globals"
      "int g; def bump() { g = g + 1; } def main() { bump(); bump(); print_int(g); }"
      [ "2" ];
    check "global array via function"
      "int[] a; def set(int i, int v) { a[i] = v; } def main() { a = new int[2]; set(1, 9); print_int(a[1]); }"
      [ "9" ];
    check "recursion"
      "def fib(int n) : int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
       def main() { print_int(fib(10)); }"
      [ "55" ];
    check "mutual calls"
      "def even(int n) : int { if (n == 0) { return 1; } return odd(n - 1); }\n\
       def odd(int n) : int { if (n == 0) { return 0; } return even(n - 1); }\n\
       def main() { print_int(even(10)); print_int(odd(7)); }"
      [ "1"; "1" ];
    check "array parameter"
      "def sum(int[] xs) : int { int s = 0; for (int i = 0; i < length(xs); i = i + 1) { s = s + xs[i]; } return s; }\n\
       def main() { int[] a = new int[4]; a[0]=1; a[1]=2; a[2]=3; a[3]=4; print_int(sum(a)); }"
      [ "10" ];
    check "nested loops"
      "def main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { for (int j = 0; j < 4; j = j + 1) { s = s + 1; } } print_int(s); }"
      [ "12" ];
    check "negative modulo operands avoided"
      "def main() { print_int(iabs(-7) % 3); }" [ "1" ];
  ]

let test_trap_div_zero () =
  Alcotest.check_raises "div by zero" (Hydra.Machine.Trap "integer division by zero")
    (fun () -> ignore (run_outputs "def main() { int z = 0; print_int(1 / z); }"))

let test_trap_negative_address () =
  (* far enough below the heap that the address itself is negative *)
  match
    run_outputs
      "int[] a; def main() { a = new int[2]; print_int(a[-100000]); }"
  with
  | _ -> Alcotest.fail "a negative address must trap"
  | exception Hydra.Machine.Trap _ -> ()

(* The interpreter's annotation split (paper Figure 6) equals the events
   a sink sees, each priced at its Hydra.Cost constant; untraced, it is 0. *)
let test_annotation_cycles () =
  let prog, _ =
    Compiler.Codegen.compile_source
      ~mode:(Compiler.Codegen.Annotated { optimized = false })
      "int[] a;\n\
       def main() { a = new int[50]; int x = 1; for (int i = 0; i < 50; i = i + 1) { a[i] = x; x = (x * 7 + i) % 101; } print_int(x); }"
  in
  let locals = ref 0 and reads = ref 0 and bounds = ref 0 and eois = ref 0 in
  let sink =
    {
      Hydra.Trace.null_sink with
      on_sloop = (fun ~stl:_ ~nlocals:_ ~frame:_ ~now:_ -> incr bounds);
      on_eloop = (fun ~stl:_ ~now:_ -> incr bounds);
      on_eoi = (fun ~stl:_ ~now:_ -> incr eois);
      on_read_stats = (fun ~stl:_ ~now:_ -> incr reads);
      on_local_load = (fun ~frame:_ ~slot:_ ~pc:_ ~now:_ -> incr locals);
      on_local_store = (fun ~frame:_ ~slot:_ ~now:_ -> incr locals);
    }
  in
  let r = Hydra.Seq_interp.run ~tracing:true ~sink prog in
  Alcotest.(check bool) "every kind seen" true
    (!locals > 0 && !reads > 0 && !bounds > 0 && !eois > 0);
  Alcotest.(check int) "locals" (!locals * Hydra.Cost.cost_anno_local)
    r.Hydra.Seq_interp.locals_cycles;
  Alcotest.(check int) "read stats" (!reads * Hydra.Cost.cost_read_stats)
    r.Hydra.Seq_interp.read_stats_cycles;
  Alcotest.(check int) "loop annotations"
    ((!bounds * Hydra.Cost.cost_anno_loop) + (!eois * Hydra.Cost.cost_anno_eoi))
    r.Hydra.Seq_interp.loop_anno_cycles;
  let u = Hydra.Seq_interp.run prog in
  Alcotest.(check (list int)) "untraced: all 0" [ 0; 0; 0 ]
    [
      u.Hydra.Seq_interp.locals_cycles;
      u.Hydra.Seq_interp.read_stats_cycles;
      u.Hydra.Seq_interp.loop_anno_cycles;
    ]

let test_cycles_positive () =
  let prog, _ =
    Compiler.Codegen.compile_source ~mode:Compiler.Codegen.Plain
      "def main() { int s = 0; for (int i = 0; i < 100; i = i + 1) { s = s + i; } print_int(s); }"
  in
  let r = Hydra.Seq_interp.run prog in
  Alcotest.(check bool) "cycles > instrs/2" true
    (r.Hydra.Seq_interp.cycles > r.Hydra.Seq_interp.instructions / 2);
  Alcotest.(check bool) "counted instructions" true
    (r.Hydra.Seq_interp.instructions > 500)

let test_fuel () =
  let prog, _ =
    Compiler.Codegen.compile_source ~mode:Compiler.Codegen.Plain
      "def main() { while (1) { } }"
  in
  Alcotest.check_raises "runs out of fuel" (Hydra.Seq_interp.Out_of_fuel 10_000)
    (fun () -> ignore (Hydra.Seq_interp.run ~fuel:10_000 prog))

let suites =
  [
    ("interp.semantics", semantics_cases);
    ( "interp.machine",
      [
        Alcotest.test_case "trap div zero" `Quick test_trap_div_zero;
        Alcotest.test_case "negative address" `Quick test_trap_negative_address;
        Alcotest.test_case "annotation cycles" `Quick test_annotation_cycles;
        Alcotest.test_case "cycle accounting" `Quick test_cycles_positive;
        Alcotest.test_case "fuel limit" `Quick test_fuel;
      ] );
  ]
