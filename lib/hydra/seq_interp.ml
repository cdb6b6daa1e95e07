open Ir

type result = {
  cycles : int;
  output : Value.t list;
  memory : Machine.Memory.t;
  instructions : int;
  locals_cycles : int;
  read_stats_cycles : int;
  loop_anno_cycles : int;
  stub_cycles : int;
  eloops : int;
  lwl_extra : int;
}

exception Out_of_fuel = Machine.Out_of_fuel

let[@inline never] negative_address () =
  raise (Machine.Trap "negative heap address")

(* The frame-local instructions: [Const], [Mov], [Unop], [Binop],
   [Ld_local] and [St_local], on frame [fr]'s file. Operand kinds are
   checked here, at the point of use, with [Machine.eval_binop]'s trap
   messages. *)
let[@inline] exec_local (fr : Machine.frame) (ins : Native.instr) =
  let open Machine in
  match ins with
  | Native.Const (r, Value.Int n) -> set_int fr r n
  | Native.Const (r, Value.Float x) -> set_float fr r x
  | Native.Mov (d, s) -> copy ~from:fr s ~into:fr d
  | Native.Ld_local (d, s) -> copy ~from:fr (fr.soff + s) ~into:fr d
  | Native.St_local (s, r) -> copy ~from:fr r ~into:fr (fr.soff + s)
  | Native.Unop (d, op, s) -> (
      match op with
      | Tac.Neg -> set_int fr d (-get_int fr s)
      | Tac.FNeg -> set_float fr d (-.get_float fr s)
      | Tac.LNot -> set_bool fr d (get_int fr s = 0)
      | Tac.I2F -> set_float fr d (Float.of_int (get_int fr s))
      | Tac.F2I -> set_int fr d (Float.to_int (get_float fr s)))
  | Native.Binop (d, op, a, b) -> (
      match op with
      | Tac.Add -> set_int fr d (get_int fr a + get_int fr b)
      | Tac.Sub -> set_int fr d (get_int fr a - get_int fr b)
      | Tac.Mul -> set_int fr d (get_int fr a * get_int fr b)
      | Tac.Div ->
          let y = get_int fr b in
          if y = 0 then raise (Trap "integer division by zero");
          set_int fr d (get_int fr a / y)
      | Tac.Rem ->
          let y = get_int fr b in
          if y = 0 then raise (Trap "integer remainder by zero");
          set_int fr d (get_int fr a mod y)
      | Tac.BAnd -> set_int fr d (get_int fr a land get_int fr b)
      | Tac.BOr -> set_int fr d (get_int fr a lor get_int fr b)
      | Tac.BXor -> set_int fr d (get_int fr a lxor get_int fr b)
      | Tac.Shl -> set_int fr d (get_int fr a lsl get_int fr b)
      | Tac.Shr -> set_int fr d (get_int fr a asr get_int fr b)
      | Tac.Eq -> set_bool fr d (get_int fr a = get_int fr b)
      | Tac.Ne -> set_bool fr d (get_int fr a <> get_int fr b)
      | Tac.Lt -> set_bool fr d (get_int fr a < get_int fr b)
      | Tac.Le -> set_bool fr d (get_int fr a <= get_int fr b)
      | Tac.Gt -> set_bool fr d (get_int fr a > get_int fr b)
      | Tac.Ge -> set_bool fr d (get_int fr a >= get_int fr b)
      | Tac.FAdd -> set_float fr d (get_float fr a +. get_float fr b)
      | Tac.FSub -> set_float fr d (get_float fr a -. get_float fr b)
      | Tac.FMul -> set_float fr d (get_float fr a *. get_float fr b)
      | Tac.FDiv -> set_float fr d (get_float fr a /. get_float fr b)
      | Tac.FEq | Tac.FNe | Tac.FLt | Tac.FLe | Tac.FGt | Tac.FGe ->
          (* [Float.compare], like [Machine.eval_binop]: NaN equals
             itself and sorts below every other float *)
          let c = Float.compare (get_float fr a) (get_float fr b) in
          set_bool fr d
            (match op with
            | Tac.FEq -> c = 0
            | Tac.FNe -> c <> 0
            | Tac.FLt -> c < 0
            | Tac.FLe -> c <= 0
            | Tac.FGt -> c > 0
            | _ -> c >= 0))
  | _ -> invalid_arg "Seq_interp.exec_local"

type state = {
  mem : Machine.Memory.t;
  costs : int array array;
  mutable cycles : int;
  mutable icount : int;
  mutable output : Value.t list;
}

let exec ~sink ~tracing ~fuel ~speculate (p : Native.program) : result =
  (* [costs.(f).(pc)]: the cycle cost of instruction [pc] of function
     [f]; annotations are free no-ops in an untraced run *)
  let costs =
    Array.map
      (fun f ->
        Array.map
          (fun ins ->
            match ins with
            | Native.Sloop _ | Native.Eloop _ | Native.Eoi _
            | Native.Read_stats _ | Native.Lwl _ | Native.Swl _
              when not tracing ->
                0
            | _ -> Native.instr_cost ins)
          f.Native.code)
      p.funcs
  in
  let st =
    { mem = Machine.Memory.create ~heap_base:p.heap_base; costs; cycles = 0;
      icount = 0; output = [] }
  in
  let mem = st.mem in
  (* [st.cycles] and [st.icount] are current only around [speculate] *)
  let cycles = ref 0 in
  let icount = ref 0 in
  (* the annotation cycles of paper Figure 6, by kind *)
  let locals_cycles = ref 0 and read_stats_cycles = ref 0 in
  let loop_anno_cycles = ref 0 in
  (* what the plain and base-annotation builds would run differently:
     edge-stub jumps, [eloop]s and the loads only the base build
     annotates ([Native.func]'s [stub_start] and [lwl_extra]) *)
  let stub_cycles = ref 0 and eloops = ref 0 and lwl_extra = ref 0 in
  let frame_uid = ref 1 in
  let stack = ref [] in
  let frame =
    ref
      (Machine.new_frame p.funcs.(p.main) ~fidx:p.main ~ret_pc:(-1)
         ~ret_reg:None ~uid:1)
  in
  (* the current frame's function; it changes only at [Call], [Return]
     and a speculative region *)
  let cur_code = ref p.funcs.(p.main).Native.code in
  let cur_costs = ref costs.(p.main) in
  let cur_pc_base = ref p.funcs.(p.main).Native.pc_base in
  let cur_stub_start = ref p.funcs.(p.main).Native.stub_start in
  let cur_lwl_extra = ref p.funcs.(p.main).Native.lwl_extra in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let code = !cur_code in
    if !pc < 0 || !pc >= Array.length code then
      raise
        (Machine.Trap
           (Printf.sprintf "pc out of range in %s"
              p.funcs.(!frame.Machine.fidx).Native.name));
    let ins = Array.unsafe_get code !pc in
    incr icount;
    if !icount > fuel then raise (Out_of_fuel fuel);
    let cost = Array.unsafe_get !cur_costs !pc in
    cycles := !cycles + cost;
    let fr = !frame in
    let next = !pc + 1 in
    match ins with
    | Native.Const _ | Native.Mov _ | Native.Unop _ | Native.Binop _
    | Native.Ld_local _ | Native.St_local _ ->
        exec_local fr ins;
        pc := next
    | Native.Ld_heap (d, a) ->
        let addr = Machine.get_int fr a in
        if addr < 0 then negative_address ();
        let cells = mem.Machine.Memory.cells in
        (if addr >= Array.length cells then Machine.set_int fr d 0
         else Machine.set fr d cells.(addr));
        if tracing then
          sink.Trace.on_heap_load ~addr ~pc:(!cur_pc_base + !pc) ~now:!cycles;
        pc := next
    | Native.St_heap (a, s) ->
        let addr = Machine.get_int fr a in
        if addr < 0 then negative_address ();
        if addr >= Array.length mem.Machine.Memory.cells then
          Machine.Memory.ensure mem addr;
        mem.Machine.Memory.cells.(addr) <- Machine.get fr s;
        if tracing then sink.Trace.on_heap_store ~addr ~now:!cycles;
        pc := next
    | Native.Alloc (d, n, kind) ->
        Machine.set_int fr d
          (Machine.Memory.alloc ~kind mem (Machine.get_int fr n));
        pc := next
    | Native.Call (ret_reg, callee, args) ->
        if tracing then sink.Trace.on_call ~callee ~now:!cycles;
        incr frame_uid;
        let f = p.funcs.(callee) in
        let callee_fr =
          Machine.new_frame f ~fidx:callee ~ret_pc:next ~ret_reg
            ~uid:!frame_uid
        in
        Machine.pass_args ~caller:fr ~callee:callee_fr args;
        stack := fr :: !stack;
        frame := callee_fr;
        cur_code := f.Native.code;
        cur_costs := costs.(callee);
        cur_pc_base := f.Native.pc_base;
        cur_stub_start := f.Native.stub_start;
        cur_lwl_extra := f.Native.lwl_extra;
        pc := 0
    | Native.Builtin (d, b, args) ->
        Machine.set fr d
          (Machine.eval_builtin b (List.map (fun r -> Machine.get fr r) args));
        pc := next
    | Native.Print (_, r) ->
        st.output <- Machine.get fr r :: st.output;
        pc := next
    | Native.Jump t ->
        if !pc >= !cur_stub_start then stub_cycles := !stub_cycles + cost;
        pc := t
    | Native.Branch (r, a, b) -> pc := if Machine.nonzero fr r then a else b
    | Native.Return rv -> (
        if tracing && !stack <> [] then sink.Trace.on_return ~now:!cycles;
        match !stack with
        | [] -> running := false
        | caller :: rest ->
            (match (fr.Machine.ret_reg, rv) with
            | Some d, Some r -> Machine.copy ~from:fr r ~into:caller d
            | Some d, None -> Machine.set caller d Value.zero
            | None, _ -> ());
            pc := fr.Machine.ret_pc;
            frame := caller;
            stack := rest;
            let f = p.funcs.(caller.Machine.fidx) in
            cur_code := f.Native.code;
            cur_costs := costs.(caller.Machine.fidx);
            cur_pc_base := f.Native.pc_base;
            cur_stub_start := f.Native.stub_start;
            cur_lwl_extra := f.Native.lwl_extra)
    | Native.Sloop (stl, nlocals) ->
        loop_anno_cycles := !loop_anno_cycles + cost;
        if tracing then
          sink.Trace.on_sloop ~stl ~nlocals ~frame:fr.Machine.uid
            ~now:!cycles;
        pc := next
    | Native.Eloop stl ->
        loop_anno_cycles := !loop_anno_cycles + cost;
        incr eloops;
        if tracing then sink.Trace.on_eloop ~stl ~now:!cycles;
        pc := next
    | Native.Eoi stl ->
        loop_anno_cycles := !loop_anno_cycles + cost;
        if tracing then sink.Trace.on_eoi ~stl ~now:!cycles;
        pc := next
    | Native.Read_stats stl ->
        read_stats_cycles := !read_stats_cycles + cost;
        if tracing then sink.Trace.on_read_stats ~stl ~now:!cycles;
        pc := next
    | Native.Lwl s ->
        locals_cycles := !locals_cycles + cost;
        lwl_extra := !lwl_extra + (!cur_lwl_extra).(!pc);
        if tracing then
          sink.Trace.on_local_load ~frame:fr.Machine.uid ~slot:s
            ~pc:(!cur_pc_base + !pc) ~now:!cycles;
        pc := next
    | Native.Swl s ->
        locals_cycles := !locals_cycles + cost;
        if tracing then
          sink.Trace.on_local_store ~frame:fr.Machine.uid ~slot:s
            ~now:!cycles;
        pc := next
    | Native.Tls_enter stl -> (
        match (speculate, List.assoc_opt stl p.stl_plans) with
        | Some speculate, Some plan
          when plan.Native.plan_func = fr.Machine.fidx ->
            st.cycles <- !cycles;
            st.icount <- !icount;
            let fr, resume = speculate st plan fr in
            cycles := st.cycles;
            icount := st.icount;
            frame := fr;
            pc := resume
        | _ -> pc := next)
    | Native.Tls_iter_end _ | Native.Tls_exit _ -> pc := next
  done;
  { cycles = !cycles; output = List.rev st.output; memory = mem;
    instructions = !icount; locals_cycles = !locals_cycles;
    read_stats_cycles = !read_stats_cycles;
    loop_anno_cycles = !loop_anno_cycles; stub_cycles = !stub_cycles;
    eloops = !eloops; lwl_extra = !lwl_extra }

let run ?(sink = Trace.null_sink) ?(tracing = false) ?(fuel = 500_000_000) p =
  exec ~sink ~tracing ~fuel ~speculate:None p
