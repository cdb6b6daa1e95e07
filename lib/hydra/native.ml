(** "Native" code of the simulated Hydra CPUs.

    A function is a linear array of instructions; control flow targets are
    instruction indices within the function. The ISA mirrors {!Ir.Tac}
    plus the TEST annotation instructions of paper Table 4 ([sloop],
    [eloop], [eoi], [lwl]/[swl], plus the read-statistics routine call)
    and the TLS region markers used by the speculative simulator.

    Program-wide PCs: instruction [i] of function [f] has PC
    [f.pc_base + i] — TEST's extended implementation bins dependency arcs
    by this load PC (paper Sec. 6.3). *)

type reg = int
type slot = int

type instr =
  | Const of reg * Ir.Value.t
  | Mov of reg * reg
  | Unop of reg * Ir.Tac.unop * reg
  | Binop of reg * Ir.Tac.binop * reg * reg
  | Ld_local of reg * slot
  | St_local of slot * reg
  | Ld_heap of reg * reg
  | St_heap of reg * reg
  | Alloc of reg * reg * [ `Int | `Float ]
  | Call of reg option * int * reg list  (** callee function index *)
  | Builtin of reg * Ir.Tac.builtin * reg list
  | Print of [ `Int | `Float ] * reg
  | Jump of int
  | Branch of reg * int * int            (** nonzero -> first *)
  | Return of reg option
  (* --- TEST annotations (no-ops unless tracing; see Seq_interp) --- *)
  | Sloop of int * int                   (** STL id, #annotated local slots *)
  | Eloop of int
  | Eoi of int
  | Read_stats of int
  | Lwl of slot
  | Swl of slot
  (* --- TLS markers (no-ops unless running under Tls_sim) --- *)
  | Tls_enter of int                     (** start of a selected STL region *)
  | Tls_iter_end of int                  (** back edge of the selected loop *)
  | Tls_exit of int                      (** exit edge of the selected loop *)

type func = {
  name : string;
  nslots : int;
  nregs : int;
  code : instr array;
  pc_base : int;
  stub_start : int;
      (** first pc of the edge stubs, which the code generator emits
          after every block; [Array.length code] when there are none *)
  lwl_extra : int array;
      (** per pc: at an [Lwl] of an optimized-annotation build, how many
          later loads of the same slot in its block the base build also
          annotates; 0 everywhere else *)
}

(** Recompilation plan for one selected STL (built by the TLS code
    generator, consumed by {!Tls_sim}). Carried locals have already been
    rewritten to heap cells in the code itself. *)
type stl_plan = {
  stl_id : int;
  plan_func : int;                        (** index of the containing function *)
  body_start : int;                       (** pc where each thread begins *)
  inductors : (slot * int) list;          (** slot, per-iteration step *)
  reductions : (slot * Cfg.Scalar.reduction_op) list;
  globalized : (slot * int) list;         (** slot, heap address *)
  invariants : slot list;                 (** register-allocated invariants *)
}

type program = {
  funcs : func array;
  main : int;
  globals : Ir.Tac.global_info array;
  heap_base : int;
  stl_plans : (int * stl_plan) list;      (** keyed by STL id *)
}

let func_index (p : program) name =
  let found = ref (-1) in
  Array.iteri (fun i f -> if f.name = name then found := i) p.funcs;
  if !found < 0 then invalid_arg ("Native.func_index: " ^ name) else !found

let instr_cost (i : instr) : int =
  match i with
  | Const _ | Mov _ -> Cost.cost_simple
  | Unop (_, (Ir.Tac.Neg | Ir.Tac.LNot), _) -> Cost.cost_simple
  | Unop (_, (Ir.Tac.FNeg | Ir.Tac.I2F | Ir.Tac.F2I), _) -> Cost.cost_fsimple
  | Binop (_, op, _, _) -> (
      match op with
      | Ir.Tac.Mul -> Cost.cost_mul
      | Ir.Tac.Div | Ir.Tac.Rem -> Cost.cost_div
      | Ir.Tac.FAdd | Ir.Tac.FSub | Ir.Tac.FMul -> Cost.cost_fsimple
      | Ir.Tac.FDiv -> Cost.cost_fdiv
      | Ir.Tac.FEq | Ir.Tac.FNe | Ir.Tac.FLt | Ir.Tac.FLe | Ir.Tac.FGt
      | Ir.Tac.FGe ->
          Cost.cost_fsimple
      | _ -> Cost.cost_simple)
  | Ld_local _ | St_local _ -> Cost.cost_local
  | Ld_heap _ | St_heap _ -> Cost.cost_heap
  | Alloc _ -> Cost.cost_alloc
  | Call _ -> Cost.cost_call
  | Return _ -> Cost.cost_return
  | Builtin (_, b, _) -> (
      match b with
      | Ir.Tac.Sqrt | Ir.Tac.Sin | Ir.Tac.Cos | Ir.Tac.Exp | Ir.Tac.Log ->
          Cost.cost_builtin_math
      | _ -> Cost.cost_builtin_cheap)
  | Print _ -> Cost.cost_print
  | Jump _ | Branch _ -> Cost.cost_simple
  | Sloop _ | Eloop _ -> Cost.cost_anno_loop
  | Eoi _ -> Cost.cost_anno_eoi
  | Read_stats _ -> Cost.cost_read_stats
  | Lwl _ | Swl _ -> Cost.cost_anno_local
  | Tls_enter _ | Tls_iter_end _ | Tls_exit _ -> 0

let pp_instr ppf (i : instr) =
  let p fmt = Format.fprintf ppf fmt in
  match i with
  | Const (r, v) -> p "r%d <- %a" r Ir.Value.pp v
  | Mov (d, s) -> p "r%d <- r%d" d s
  | Unop (d, op, s) -> p "r%d <- %s r%d" d (Ir.Tac.string_of_unop op) s
  | Binop (d, op, a, b) -> p "r%d <- %s r%d, r%d" d (Ir.Tac.string_of_binop op) a b
  | Ld_local (d, s) -> p "r%d <- local[%d]" d s
  | St_local (s, r) -> p "local[%d] <- r%d" s r
  | Ld_heap (d, a) -> p "r%d <- mem[r%d]" d a
  | St_heap (a, s) -> p "mem[r%d] <- r%d" a s
  | Alloc (d, n, `Int) -> p "r%d <- alloc_i r%d" d n
  | Alloc (d, n, `Float) -> p "r%d <- alloc_f r%d" d n
  | Call (Some d, f, args) ->
      p "r%d <- call #%d(%s)" d f (String.concat "," (List.map (Printf.sprintf "r%d") args))
  | Call (None, f, args) ->
      p "call #%d(%s)" f (String.concat "," (List.map (Printf.sprintf "r%d") args))
  | Builtin (d, b, args) ->
      p "r%d <- %s(%s)" d (Ir.Tac.string_of_builtin b)
        (String.concat "," (List.map (Printf.sprintf "r%d") args))
  | Print (`Int, r) -> p "print_int r%d" r
  | Print (`Float, r) -> p "print_float r%d" r
  | Jump t -> p "jump @%d" t
  | Branch (r, a, b) -> p "branch r%d ? @%d : @%d" r a b
  | Return None -> p "return"
  | Return (Some r) -> p "return r%d" r
  | Sloop (s, n) -> p "sloop %d, %d" s n
  | Eloop s -> p "eloop %d" s
  | Eoi s -> p "eoi %d" s
  | Read_stats s -> p "read_stats %d" s
  | Lwl s -> p "lwl %d" s
  | Swl s -> p "swl %d" s
  | Tls_enter s -> p "tls_enter %d" s
  | Tls_iter_end s -> p "tls_iter_end %d" s
  | Tls_exit s -> p "tls_exit %d" s

let pp_func ppf (f : func) =
  Format.fprintf ppf "@[<v>%s (slots=%d regs=%d):@," f.name f.nslots f.nregs;
  Array.iteri (fun i ins -> Format.fprintf ppf "  %4d: %a@," i pp_instr ins) f.code;
  Format.fprintf ppf "@]"
