open Ir
module N = Hydra.Native

type mode =
  | Plain
  | Annotated of { optimized : bool }
  | Tls of { selected : int list }

(* Pre-resolution instruction stream: control targets are symbolic. *)
type target = TBlock of int | TStub of int

type pre =
  | PI of N.instr
  | PJump of target
  | PBranch of N.reg * target * target
  | PReturn of N.reg option

(* ------------------------------------------------------------------ *)
(* Per-function codegen context *)

type ctx = {
  f : Tac.func;
  table : Stl_table.t;
  mode : mode;
  loops : Cfg.Loops.t option; (* None when the function has no loops *)
  (* stl id per loop index (only candidates that are traced / selected) *)
  stl_of_loop : int -> Stl_table.stl option;
  mutable next_reg : int;
  (* carried-slot heap cells for selected loops: (loop_idx, slot) -> addr *)
  carried_addr : (int * int, int) Hashtbl.t;
  buf : pre list ref;
  mutable emitted : int;
  block_start : int array;
  (* optimized annotation: pc of an [Lwl] -> later loads of its slot in
     its block, which only the base build annotates *)
  lwl_extra : (int, int) Hashtbl.t;
}

let fresh_reg ctx =
  let r = ctx.next_reg in
  ctx.next_reg <- r + 1;
  r

let emit ctx p =
  ctx.buf := p :: !(ctx.buf);
  ctx.emitted <- ctx.emitted + 1

let loop_arr ctx =
  match ctx.loops with Some l -> l.Cfg.Loops.loops | None -> [||]

let loops_containing ctx b =
  let arr = loop_arr ctx in
  let res = ref [] in
  Array.iteri (fun i lp -> if List.mem b lp.Cfg.Loops.body then res := i :: !res) arr;
  (* innermost (smallest body) first *)
  List.sort
    (fun i j ->
      compare
        (List.length (loop_arr ctx).(i).Cfg.Loops.body)
        (List.length (loop_arr ctx).(j).Cfg.Loops.body))
    !res

let body_size ctx i = List.length (loop_arr ctx).(i).Cfg.Loops.body

(* Classification helpers for edges *)
let exited_loops ctx u v =
  loops_containing ctx u
  |> List.filter (fun i -> not (List.mem v (loop_arr ctx).(i).Cfg.Loops.body))

let back_edge_loops ctx u v =
  loops_containing ctx u
  |> List.filter (fun i -> (loop_arr ctx).(i).Cfg.Loops.header = v)

let entered_loops ctx u v =
  let arr = loop_arr ctx in
  let res = ref [] in
  Array.iteri
    (fun i lp ->
      if lp.Cfg.Loops.header = v && not (List.mem u lp.Cfg.Loops.body) then
        res := i :: !res)
    arr;
  (* outermost (largest body) first *)
  List.sort (fun i j -> compare (body_size ctx j) (body_size ctx i)) !res

(* Statistics-read hoisting (paper Sec. 5.1): in optimized mode a loop's
   read-statistics call is hoisted to its parent when it is the parent's
   only child loop. [stats_read_at ctx i] = STLs whose statistics are
   read on loop [i]'s exit edges. *)
let hoisted_to_parent ctx i =
  match (loop_arr ctx).(i).Cfg.Loops.parent with
  | Some p -> List.length (loop_arr ctx).(p).Cfg.Loops.children = 1
  | None -> false

let rec collect_hoisted ctx i =
  let lp = (loop_arr ctx).(i) in
  i
  ::
  (match lp.Cfg.Loops.children with
  | [ c ] when hoisted_to_parent ctx c -> collect_hoisted ctx c
  | _ -> [])

let stats_read_at ctx i =
  match ctx.mode with
  | Annotated { optimized = true } ->
      if hoisted_to_parent ctx i then [] else collect_hoisted ctx i
  | _ -> [ i ]

(* ------------------------------------------------------------------ *)
(* Stub construction *)

let annotation_stub_instrs ctx u v : N.instr list =
  match ctx.mode with
  | Plain -> []
  | Tls { selected } ->
      let is_selected i =
        match ctx.stl_of_loop i with
        | Some s -> List.mem s.Stl_table.id selected
        | None -> false
      in
      let out = ref [] in
      let add i = out := i :: !out in
      (* exits: innermost first *)
      List.iter
        (fun i ->
          if is_selected i then begin
            let s = Option.get (ctx.stl_of_loop i) in
            add (N.Tls_exit s.Stl_table.id);
            (* copy globalized carried locals back into the frame *)
            Array.iteri
              (fun slot cls ->
                if cls = Cfg.Scalar.Carried then
                  match Hashtbl.find_opt ctx.carried_addr (i, slot) with
                  | Some addr ->
                      let ra = fresh_reg ctx and rv = fresh_reg ctx in
                      add (N.Const (ra, Value.Int addr));
                      add (N.Ld_heap (rv, ra));
                      add (N.St_local (slot, rv))
                  | None -> ())
              s.Stl_table.classes
          end)
        (exited_loops ctx u v);
      (* back edges *)
      List.iter
        (fun i -> if is_selected i then add (N.Tls_iter_end (Option.get (ctx.stl_of_loop i)).Stl_table.id))
        (back_edge_loops ctx u v);
      (* entries: outermost first *)
      List.iter
        (fun i ->
          if is_selected i then begin
            let s = Option.get (ctx.stl_of_loop i) in
            (* copy carried locals out to their heap cells *)
            Array.iteri
              (fun slot cls ->
                if cls = Cfg.Scalar.Carried then
                  match Hashtbl.find_opt ctx.carried_addr (i, slot) with
                  | Some addr ->
                      let rv = fresh_reg ctx and ra = fresh_reg ctx in
                      add (N.Ld_local (rv, slot));
                      add (N.Const (ra, Value.Int addr));
                      add (N.St_heap (ra, rv))
                  | None -> ())
              s.Stl_table.classes;
            add (N.Tls_enter s.Stl_table.id)
          end)
        (entered_loops ctx u v);
      List.rev !out
  | Annotated _ ->
      let out = ref [] in
      let add i = out := i :: !out in
      List.iter
        (fun i ->
          match ctx.stl_of_loop i with
          | Some s when s.Stl_table.traced ->
              add (N.Eloop s.Stl_table.id);
              List.iter
                (fun j ->
                  match ctx.stl_of_loop j with
                  | Some sj when sj.Stl_table.traced ->
                      add (N.Read_stats sj.Stl_table.id)
                  | _ -> ())
                (stats_read_at ctx i)
          | _ -> ())
        (exited_loops ctx u v);
      List.iter
        (fun i ->
          match ctx.stl_of_loop i with
          | Some s when s.Stl_table.traced -> add (N.Eoi s.Stl_table.id)
          | _ -> ())
        (back_edge_loops ctx u v);
      List.iter
        (fun i ->
          match ctx.stl_of_loop i with
          | Some s when s.Stl_table.traced ->
              add
                (N.Sloop
                   (s.Stl_table.id, List.length s.Stl_table.annotated_slots))
          | _ -> ())
        (entered_loops ctx u v);
      List.rev !out

(* Instructions to emit before a Return from block [b]. *)
let return_prefix ctx b : N.instr list =
  match ctx.mode with
  | Plain -> []
  | Annotated _ ->
      List.concat_map
        (fun i ->
          match ctx.stl_of_loop i with
          | Some s when s.Stl_table.traced ->
              N.Eloop s.Stl_table.id
              :: List.filter_map
                   (fun j ->
                     match ctx.stl_of_loop j with
                     | Some sj when sj.Stl_table.traced ->
                         Some (N.Read_stats sj.Stl_table.id)
                     | _ -> None)
                   (stats_read_at ctx i)
          | _ -> [])
        (loops_containing ctx b)
  | Tls { selected } ->
      List.concat_map
        (fun i ->
          match ctx.stl_of_loop i with
          | Some s when List.mem s.Stl_table.id selected ->
              let copy_back = ref [] in
              Array.iteri
                (fun slot cls ->
                  if cls = Cfg.Scalar.Carried then
                    match Hashtbl.find_opt ctx.carried_addr (i, slot) with
                    | Some addr ->
                        let ra = fresh_reg ctx and rv = fresh_reg ctx in
                        copy_back :=
                          !copy_back
                          @ [
                              N.Const (ra, Value.Int addr);
                              N.Ld_heap (rv, ra);
                              N.St_local (slot, rv);
                            ]
                    | None -> ())
                s.Stl_table.classes;
              (N.Tls_exit s.Stl_table.id :: !copy_back)
          | _ -> [])
        (loops_containing ctx b)

(* ------------------------------------------------------------------ *)
(* Instruction translation *)

(* Is block [b] inside a selected loop whose carried slot [slot] was
   globalized? Returns the heap address. *)
let globalized_addr ctx b slot =
  match ctx.mode with
  | Tls { selected } ->
      let rec find = function
        | [] -> None
        | i :: rest -> (
            match ctx.stl_of_loop i with
            | Some s
              when List.mem s.Stl_table.id selected
                   && List.mem b (loop_arr ctx).(i).Cfg.Loops.body ->
                Hashtbl.find_opt ctx.carried_addr (i, slot) |> fun o ->
                if o = None then find rest else o
            | _ -> find rest)
      in
      find (loops_containing ctx b)
  | _ -> None

(* A named-local access is annotated only when some enclosing traced
   loop classifies the slot as Carried — inductors, reductions,
   invariants, and private locals are compiler-eliminable and never
   tracked (paper Sec. 4.1/5.1). *)
let slot_needs_annotation ctx b slot =
  match ctx.mode with
  | Annotated _ ->
      List.exists
        (fun i ->
          match ctx.stl_of_loop i with
          | Some s ->
              s.Stl_table.traced
              && slot < Array.length s.Stl_table.classes
              && s.Stl_table.classes.(slot) = Cfg.Scalar.Carried
          | None -> false)
        (loops_containing ctx b)
  | _ -> false

let translate_instr ctx b ~annotated_loads (i : Tac.instr) : N.instr list =
  match i with
  | Tac.Const (r, v) -> [ N.Const (r, v) ]
  | Tac.Mov (d, s) -> [ N.Mov (d, s) ]
  | Tac.Unop (d, op, s) -> [ N.Unop (d, op, s) ]
  | Tac.Binop (d, op, a, b) -> [ N.Binop (d, op, a, b) ]
  | Tac.Ld_local (r, s) -> (
      match globalized_addr ctx b s with
      | Some addr ->
          let ra = fresh_reg ctx in
          [ N.Const (ra, Value.Int addr); N.Ld_heap (r, ra) ]
      | None ->
          if slot_needs_annotation ctx b s then begin
            let annotate =
              match ctx.mode with
              | Annotated { optimized = true } -> (
                  match Hashtbl.find_opt annotated_loads s with
                  | Some lwl_pc ->
                      let n =
                        Option.value ~default:0
                          (Hashtbl.find_opt ctx.lwl_extra lwl_pc)
                      in
                      Hashtbl.replace ctx.lwl_extra lwl_pc (n + 1);
                      false
                  | None ->
                      (* the [Lwl] is the next instruction emitted *)
                      Hashtbl.replace annotated_loads s ctx.emitted;
                      true)
              | _ -> true
            in
            if annotate then [ N.Lwl s; N.Ld_local (r, s) ]
            else [ N.Ld_local (r, s) ]
          end
          else [ N.Ld_local (r, s) ])
  | Tac.St_local (s, r) -> (
      match globalized_addr ctx b s with
      | Some addr ->
          let ra = fresh_reg ctx in
          [ N.Const (ra, Value.Int addr); N.St_heap (ra, r) ]
      | None ->
          if slot_needs_annotation ctx b s then [ N.Swl s; N.St_local (s, r) ]
          else [ N.St_local (s, r) ])
  | Tac.Ld_heap (d, a) -> [ N.Ld_heap (d, a) ]
  | Tac.St_heap (a, s) -> [ N.St_heap (a, s) ]
  | Tac.Alloc (d, n, kind) -> [ N.Alloc (d, n, kind) ]
  | Tac.Call _ -> assert false (* handled directly in [emit_func] *)
  | Tac.Builtin (d, b, args) -> [ N.Builtin (d, b, args) ]
  | Tac.Print (k, r) -> [ N.Print (k, r) ]

(* ------------------------------------------------------------------ *)

let make_ctx ~mode ~table (f : Tac.func) : ctx =
  let loops =
    if Array.length f.blocks = 0 then None
    else Some (Stl_table.loops_of table f.fname)
  in
  let stl_of_loop i =
    match Stl_table.stl_id_of_loop table f.fname i with
    | Some id -> Some (Stl_table.stl_of table id)
    | None -> None
  in
  {
    f;
    table;
    mode;
    loops;
    stl_of_loop;
    next_reg = f.nregs;
    carried_addr = Hashtbl.create 8;
    buf = ref [];
    emitted = 0;
    block_start = Array.make (Array.length f.blocks) (-1);
    lwl_extra = Hashtbl.create 8;
  }
let emit_func ctx ~carried_addr ~func_idx =
  Hashtbl.iter (fun k v -> Hashtbl.replace ctx.carried_addr k v) carried_addr;
  let f = ctx.f in
  let nblocks = Array.length f.blocks in
  (* Pre-allocate stub ids per edge needing one. *)
  let edge_stub : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let stub_bodies = ref [] in
  let n_stubs = ref 0 in
  for u = 0 to nblocks - 1 do
    List.iter
      (fun v ->
        let instrs = annotation_stub_instrs ctx u v in
        if instrs <> [] then begin
          let id = !n_stubs in
          incr n_stubs;
          Hashtbl.replace edge_stub (u, v) id;
          stub_bodies := (id, instrs, v) :: !stub_bodies
        end)
      (Tac.successors f.blocks.(u).term)
  done;
  let target_of u v =
    match Hashtbl.find_opt edge_stub (u, v) with
    | Some id -> TStub id
    | None -> TBlock v
  in
  (* Emit blocks in label order. *)
  for b = 0 to nblocks - 1 do
    ctx.block_start.(b) <- ctx.emitted;
    let annotated_loads = Hashtbl.create 8 in
    List.iter
      (fun i ->
        List.iter
          (fun ni -> emit ctx (PI ni))
          (match i with
          | Tac.Call (d, name, args) -> [ N.Call (d, func_idx name, args) ]
          | _ -> translate_instr ctx b ~annotated_loads i))
      f.blocks.(b).instrs;
    match f.blocks.(b).term with
    | Tac.Jump l -> emit ctx (PJump (target_of b l))
    | Tac.Branch (r, a, bb) -> emit ctx (PBranch (r, target_of b a, target_of b bb))
    | Tac.Return rv ->
        List.iter (fun ni -> emit ctx (PI ni)) (return_prefix ctx b);
        emit ctx (PReturn rv)
  done;
  (* Emit stubs. *)
  let first_stub = ctx.emitted in
  let stub_start = Array.make !n_stubs (-1) in
  List.iter
    (fun (id, instrs, v) ->
      stub_start.(id) <- ctx.emitted;
      List.iter (fun ni -> emit ctx (PI ni)) instrs;
      emit ctx (PJump (TBlock v)))
    (List.rev !stub_bodies);
  (* Resolve. *)
  let resolve = function
    | TBlock b -> ctx.block_start.(b)
    | TStub s -> stub_start.(s)
  in
  let code =
    Array.of_list
      (List.rev_map
         (function
           | PI i -> i
           | PJump t -> N.Jump (resolve t)
           | PBranch (r, a, b) -> N.Branch (r, resolve a, resolve b)
           | PReturn rv -> N.Return rv)
         !(ctx.buf))
  in
  let lwl_extra = Array.make (Array.length code) 0 in
  Hashtbl.iter (fun pc n -> lwl_extra.(pc) <- n) ctx.lwl_extra;
  let header_pcs =
    match ctx.loops with
    | None -> []
    | Some loops ->
        Array.to_list
          (Array.mapi
             (fun i (lp : Cfg.Loops.loop) -> (i, ctx.block_start.(lp.Cfg.Loops.header)))
             loops.Cfg.Loops.loops)
  in
  ( {
      N.name = f.fname;
      nslots = f.nslots;
      nregs = ctx.next_reg;
      code;
      pc_base = 0 (* assigned at program assembly *);
      stub_start = first_stub;
      lwl_extra;
    },
    header_pcs )

let generate ~mode (table : Stl_table.t) (p : Tac.program) : N.program =
  let names = List.map fst p.funcs in
  let func_idx name =
    let rec idx i = function
      | [] -> invalid_arg ("Codegen: unknown function " ^ name)
      | n :: _ when n = name -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 names
  in
  (* Reserve heap cells for globalized carried locals of selected STLs. *)
  let heap_base = ref p.heap_base in
  let carried : (string, (int * int, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  (match mode with
  | Tls { selected } ->
      List.iter
        (fun id ->
          let s = Stl_table.stl_of table id in
          let tbl =
            match Hashtbl.find_opt carried s.Stl_table.func_name with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 8 in
                Hashtbl.replace carried s.Stl_table.func_name t;
                t
          in
          Array.iteri
            (fun slot cls ->
              if cls = Cfg.Scalar.Carried then begin
                Hashtbl.replace tbl (s.Stl_table.loop_idx, slot) !heap_base;
                incr heap_base
              end)
            s.Stl_table.classes)
        selected
  | _ -> ());
  let funcs_and_pcs =
    List.map
      (fun (name, f) ->
        let ctx = make_ctx ~mode ~table f in
        let carried_addr =
          Option.value
            (Hashtbl.find_opt carried name)
            ~default:(Hashtbl.create 1)
        in
        emit_func ctx ~carried_addr ~func_idx)
      p.funcs
  in
  (* Assign pc_base values. *)
  let base = ref 0 in
  let funcs =
    Array.of_list
      (List.map
         (fun ((f : N.func), _) ->
           let f = { f with N.pc_base = !base } in
           base := !base + Array.length f.N.code;
           f)
         funcs_and_pcs)
  in
  (* Build STL plans for TLS mode. *)
  let stl_plans =
    match mode with
    | Tls { selected } ->
        List.map
          (fun id ->
            let s = Stl_table.stl_of table id in
            let fi = func_idx s.Stl_table.func_name in
            let _, header_pcs = List.nth funcs_and_pcs fi in
            let body_start = List.assoc s.Stl_table.loop_idx header_pcs in
            let inductors = ref [] and reductions = ref [] in
            let globalized = ref [] and invariants = ref [] in
            Array.iteri
              (fun slot cls ->
                match cls with
                | Cfg.Scalar.Inductor step ->
                    inductors := (slot, step) :: !inductors
                | Cfg.Scalar.Reduction op ->
                    reductions := (slot, op) :: !reductions
                | Cfg.Scalar.Carried -> (
                    match
                      Hashtbl.find_opt
                        (Hashtbl.find carried s.Stl_table.func_name)
                        (s.Stl_table.loop_idx, slot)
                    with
                    | Some addr -> globalized := (slot, addr) :: !globalized
                    | None -> ())
                | Cfg.Scalar.Invariant -> invariants := slot :: !invariants
                | _ -> ())
              s.Stl_table.classes;
            ( id,
              {
                N.stl_id = id;
                plan_func = fi;
                body_start;
                inductors = !inductors;
                reductions = !reductions;
                globalized = !globalized;
                invariants = !invariants;
              } ))
          selected
    | _ -> []
  in
  {
    N.funcs;
    main = func_idx "main";
    globals = p.globals;
    heap_base = !heap_base;
    stl_plans;
  }

let compile_source ~mode src =
  let tac = Lower.compile src in
  let table = Stl_table.build tac in
  (generate ~mode table tac, table)
