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

(* ---------------- ALU differential ---------------- *)

(* Both executors dispatch ALU instructions on unboxed register files;
   [Machine.eval_binop]/[eval_unop] are the [Value]-level reference that
   [Compiler.Opt] folds constants with. A one-op program
   [Const a; Const b; op; Print] must print what the reference computes,
   or raise the same trap, on [Seq_interp], on [Tls_sim]'s sequential
   master, and inside a speculative thread. *)

let alu_operands =
  Ir.Value.
    [
      Int 0; Int 1; Int (-1); Int 2; Int 7; Int (-13); Int 62; Int 63;
      Int min_int; Int max_int; Float 0.; Float (-0.); Float 1.5;
      Float (-2.25); Float 1e300; Float nan; Float infinity;
      Float neg_infinity;
    ]

let all_binops =
  Ir.Tac.
    [
      Add; Sub; Mul; Div; Rem; BAnd; BOr; BXor; Shl; Shr; Eq; Ne; Lt; Le; Gt;
      Ge; FAdd; FSub; FMul; FDiv; FEq; FNe; FLt; FLe; FGt; FGe;
    ]

let all_unops = Ir.Tac.[ Neg; FNeg; LNot; I2F; F2I ]

(* [op] computes register 2 from registers 0 and 1. With [~spec] the op
   runs as the body of a selected loop whose first thread exits it. *)
let alu_program ~spec a b (op : Hydra.Native.instr) : Hydra.Native.program =
  let body =
    Hydra.Native.[ Const (0, a); Const (1, b); op; Print (`Int, 2) ]
  in
  let code =
    if spec then
      Hydra.Native.([ Tls_enter 0 ] @ body @ [ Tls_exit 0; Return None ])
    else body @ [ Hydra.Native.Return None ]
  in
  let plan =
    {
      Hydra.Native.stl_id = 0;
      plan_func = 0;
      body_start = 1;
      inductors = [];
      reductions = [];
      globalized = [];
      invariants = [];
    }
  in
  {
    Hydra.Native.funcs =
      [|
        {
          Hydra.Native.name = "main";
          nslots = 0;
          nregs = 3;
          code = Array.of_list code;
          pc_base = 0;
        };
      |];
    main = 0;
    globals = [||];
    heap_base = 16;
    stl_plans = (if spec then [ (0, plan) ] else []);
  }

(* bit-exact, so NaN equals NaN and 0. differs from -0. *)
let same_value (a : Ir.Value.t) (b : Ir.Value.t) =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let outcome f =
  match f () with
  | v -> Ok v
  | exception Hydra.Machine.Trap msg -> Error msg

let single = function
  | [ v ] -> v
  | l -> Alcotest.failf "expected one output, got %d" (List.length l)

let alu_agrees a b (op : Hydra.Native.instr) =
  let expected =
    outcome (fun () ->
        match op with
        | Hydra.Native.Binop (_, bop, _, _) -> Hydra.Machine.eval_binop bop a b
        | Hydra.Native.Unop (_, uop, _) -> Hydra.Machine.eval_unop uop a
        | _ -> assert false)
  in
  let seq =
    outcome (fun () ->
        single (Hydra.Seq_interp.run (alu_program ~spec:false a b op)).output)
  in
  let tls spec =
    outcome (fun () ->
        single (Hydra.Tls_sim.run (alu_program ~spec a b op)).output)
  in
  let same x y =
    match (x, y) with
    | Ok v, Ok w -> same_value v w
    | Error m, Error n -> m = n
    | _ -> false
  in
  same expected seq && same expected (tls false) && same expected (tls true)

let alu_case_gen =
  QCheck.Gen.(
    let operand =
      oneof
        [
          oneofl alu_operands;
          map (fun i -> Ir.Value.Int i) int;
          map (fun x -> Ir.Value.Float x) float;
        ]
    in
    map3
      (fun a b op -> (a, b, op))
      operand operand
      (oneof
         [
           map (fun op -> Hydra.Native.Binop (2, op, 0, 1)) (oneofl all_binops);
           map (fun op -> Hydra.Native.Unop (2, op, 0)) (oneofl all_unops);
         ]))

let prop_alu_differential =
  QCheck.Test.make ~name:"executors' ALU = Machine.eval_binop/eval_unop"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b, op) ->
         Format.asprintf "a=%a b=%a: %a" Ir.Value.pp a Ir.Value.pp b
           Hydra.Native.pp_instr op)
       alu_case_gen)
    (fun (a, b, op) -> alu_agrees a b op)

(* Every pair of the edge operands under every op; the property above
   adds random ints and floats. *)
let test_alu_exhaustive () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun op ->
              if not (alu_agrees a b op) then
                Alcotest.failf "a=%a b=%a: %a" Ir.Value.pp a Ir.Value.pp b
                  Hydra.Native.pp_instr op)
            (List.map (fun op -> Hydra.Native.Binop (2, op, 0, 1)) all_binops
            @ List.map (fun op -> Hydra.Native.Unop (2, op, 0)) all_unops))
        alu_operands)
    alu_operands

(* ---------------- hot-path allocation ---------------- *)

(* The tentpole invariant of the unboxed register files: a loop of int
   ALU ops, local loads/stores and branches allocates nothing per
   instruction, untraced or traced into the null sink. Each run also
   allocates a fixed few hundred words (cost table, frame, output);
   over the 3.5M instructions here that is under 0.001 words per
   instruction, so the 0.05 budget is all headroom. Boxing every ALU
   result and local (2 words each) costs this loop 0.4. *)
let test_hot_path_alloc () =
  let src =
    "def main() { int s = 0; int t = 1; for (int i = 0; i < 100000; i = i + 1) \
     { s = (s + i * 3) % 1000; if (s < t) { t = t - 1; } else { t = t + 2; } } \
     print_int(s + t); }"
  in
  let prog, _ =
    Compiler.Codegen.compile_source
      ~mode:(Compiler.Codegen.Annotated { optimized = false })
      src
  in
  let words_per_instr tracing =
    let before = Gc.minor_words () in
    let r = Hydra.Seq_interp.run ~tracing prog in
    let words = Gc.minor_words () -. before in
    (words /. Float.of_int r.Hydra.Seq_interp.instructions,
     r.Hydra.Seq_interp.instructions)
  in
  List.iter
    (fun tracing ->
      let w, n = words_per_instr tracing in
      Alcotest.(check bool)
        (Printf.sprintf "tracing=%b: %.4f minor words per instruction over %d"
           tracing w n)
        true
        (n > 500_000 && w < 0.05))
    [ false; true ]

let suites =
  [
    ("interp.semantics", semantics_cases);
    ( "interp.alu_oracle",
      [
        Alcotest.test_case "every operand pair" `Quick test_alu_exhaustive;
        QCheck_alcotest.to_alcotest prop_alu_differential;
      ] );
    ( "interp.hot_path",
      [
        Alcotest.test_case "ALU, locals and branches allocation-free" `Quick
          test_hot_path_alloc;
      ] );
    ( "interp.machine",
      [
        Alcotest.test_case "trap div zero" `Quick test_trap_div_zero;
        Alcotest.test_case "negative address" `Quick test_trap_negative_address;
        Alcotest.test_case "annotation cycles" `Quick test_annotation_cycles;
        Alcotest.test_case "cycle accounting" `Quick test_cycles_positive;
        Alcotest.test_case "fuel limit" `Quick test_fuel;
      ] );
  ]
