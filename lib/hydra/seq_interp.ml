open Ir

type result = {
  cycles : int;
  output : Value.t list;
  memory : Machine.Memory.t;
  instructions : int;
  locals_cycles : int;
  read_stats_cycles : int;
  loop_anno_cycles : int;
}

exception Out_of_fuel = Machine.Out_of_fuel

(* The register-file helpers of the hot loop live here, not in
   [Machine]: the dev profile compiles with [-opaque], which turns every
   cross-module call into an out-of-line call through the module block.
   Kind tags are [Machine.kind_int] ('\000') and [Machine.kind_float]. *)

let[@inline never] not_int () = raise (Machine.Trap "float value used as an int")

let[@inline never] not_float () =
  raise (Machine.Trap "int value used as a float")

let[@inline] int_at (ints : int array) kinds i =
  if Bytes.get kinds i = '\000' then ints.(i) else not_int ()

let[@inline] float_at (floats : float array) kinds i =
  if Bytes.get kinds i = '\000' then not_float () else floats.(i)

let[@inline] set_int (ints : int array) kinds i n =
  ints.(i) <- n;
  Bytes.set kinds i '\000'

let[@inline] set_float (floats : float array) kinds i x =
  floats.(i) <- x;
  Bytes.set kinds i '\001'

let[@inline] set_bool ints kinds i b = set_int ints kinds i (if b then 1 else 0)

let[@inline] move (ints : int array) (floats : float array) kinds ~src ~dst =
  ints.(dst) <- ints.(src);
  floats.(dst) <- floats.(src);
  Bytes.set kinds dst (Bytes.get kinds src)

let box (ints : int array) (floats : float array) kinds i : Value.t =
  if Bytes.get kinds i = '\000' then Value.Int ints.(i)
  else Value.Float floats.(i)

let unbox ints floats kinds i (v : Value.t) =
  match v with
  | Value.Int n -> set_int ints kinds i n
  | Value.Float x -> set_float floats kinds i x

let[@inline never] negative_address () =
  raise (Machine.Trap "negative heap address")

(* The frame-local instructions: [Const], [Mov], [Unop], [Binop],
   [Ld_local] and [St_local], on the file [ints]/[floats]/[kinds] whose
   slot 0 is at [soff]. Operand kinds are checked here, at the point of
   use, with [Machine.eval_binop]'s trap messages. *)
let[@inline] exec_local (ints : int array) (floats : float array) kinds soff
    (ins : Native.instr) =
  match ins with
  | Native.Const (r, Value.Int n) -> set_int ints kinds r n
  | Native.Const (r, Value.Float x) -> set_float floats kinds r x
  | Native.Mov (d, s) -> move ints floats kinds ~src:s ~dst:d
  | Native.Ld_local (d, s) -> move ints floats kinds ~src:(soff + s) ~dst:d
  | Native.St_local (s, r) -> move ints floats kinds ~src:r ~dst:(soff + s)
  | Native.Unop (d, op, s) -> (
      match op with
      | Tac.Neg -> set_int ints kinds d (-int_at ints kinds s)
      | Tac.FNeg -> set_float floats kinds d (-.float_at floats kinds s)
      | Tac.LNot -> set_bool ints kinds d (int_at ints kinds s = 0)
      | Tac.I2F -> set_float floats kinds d (Float.of_int (int_at ints kinds s))
      | Tac.F2I -> set_int ints kinds d (Float.to_int (float_at floats kinds s)))
  | Native.Binop (d, op, a, b) -> (
      match op with
      | Tac.Add -> set_int ints kinds d (int_at ints kinds a + int_at ints kinds b)
      | Tac.Sub -> set_int ints kinds d (int_at ints kinds a - int_at ints kinds b)
      | Tac.Mul -> set_int ints kinds d (int_at ints kinds a * int_at ints kinds b)
      | Tac.Div ->
          let y = int_at ints kinds b in
          if y = 0 then raise (Machine.Trap "integer division by zero");
          set_int ints kinds d (int_at ints kinds a / y)
      | Tac.Rem ->
          let y = int_at ints kinds b in
          if y = 0 then raise (Machine.Trap "integer remainder by zero");
          set_int ints kinds d (int_at ints kinds a mod y)
      | Tac.BAnd ->
          set_int ints kinds d (int_at ints kinds a land int_at ints kinds b)
      | Tac.BOr ->
          set_int ints kinds d (int_at ints kinds a lor int_at ints kinds b)
      | Tac.BXor ->
          set_int ints kinds d (int_at ints kinds a lxor int_at ints kinds b)
      | Tac.Shl ->
          set_int ints kinds d (int_at ints kinds a lsl int_at ints kinds b)
      | Tac.Shr ->
          set_int ints kinds d (int_at ints kinds a asr int_at ints kinds b)
      | Tac.Eq -> set_bool ints kinds d (int_at ints kinds a = int_at ints kinds b)
      | Tac.Ne -> set_bool ints kinds d (int_at ints kinds a <> int_at ints kinds b)
      | Tac.Lt -> set_bool ints kinds d (int_at ints kinds a < int_at ints kinds b)
      | Tac.Le -> set_bool ints kinds d (int_at ints kinds a <= int_at ints kinds b)
      | Tac.Gt -> set_bool ints kinds d (int_at ints kinds a > int_at ints kinds b)
      | Tac.Ge -> set_bool ints kinds d (int_at ints kinds a >= int_at ints kinds b)
      | Tac.FAdd ->
          set_float floats kinds d
            (float_at floats kinds a +. float_at floats kinds b)
      | Tac.FSub ->
          set_float floats kinds d
            (float_at floats kinds a -. float_at floats kinds b)
      | Tac.FMul ->
          set_float floats kinds d
            (float_at floats kinds a *. float_at floats kinds b)
      | Tac.FDiv ->
          set_float floats kinds d
            (float_at floats kinds a /. float_at floats kinds b)
      | Tac.FEq | Tac.FNe | Tac.FLt | Tac.FLe | Tac.FGt | Tac.FGe ->
          (* [Float.compare], like [Machine.eval_binop]: NaN equals
             itself and sorts below every other float *)
          let c =
            Float.compare (float_at floats kinds a) (float_at floats kinds b)
          in
          set_bool ints kinds d
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
  let frame_uid = ref 1 in
  let stack = ref [] in
  let frame =
    ref
      (Machine.new_frame p.funcs.(p.main) ~fidx:p.main ~ret_pc:(-1)
         ~ret_reg:None ~uid:1)
  in
  (* the current frame's function and register file; they change only at
     [Call], [Return] and a speculative region *)
  let cur_code = ref p.funcs.(p.main).Native.code in
  let cur_costs = ref costs.(p.main) in
  let cur_pc_base = ref p.funcs.(p.main).Native.pc_base in
  let cur_ints = ref !frame.Machine.ints in
  let cur_floats = ref !frame.Machine.floats in
  let cur_kinds = ref !frame.Machine.kinds in
  let cur_soff = ref !frame.Machine.soff in
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
    let ints = !cur_ints and floats = !cur_floats and kinds = !cur_kinds in
    let next = !pc + 1 in
    match ins with
    | Native.Const _ | Native.Mov _ | Native.Unop _ | Native.Binop _
    | Native.Ld_local _ | Native.St_local _ ->
        exec_local ints floats kinds !cur_soff ins;
        pc := next
    | Native.Ld_heap (d, a) ->
        let addr = int_at ints kinds a in
        if addr < 0 then negative_address ();
        let cells = mem.Machine.Memory.cells in
        (if addr >= Array.length cells then set_int ints kinds d 0
         else unbox ints floats kinds d cells.(addr));
        if tracing then
          sink.Trace.on_heap_load ~addr ~pc:(!cur_pc_base + !pc) ~now:!cycles;
        pc := next
    | Native.St_heap (a, s) ->
        let addr = int_at ints kinds a in
        if addr < 0 then negative_address ();
        if addr >= Array.length mem.Machine.Memory.cells then
          Machine.Memory.ensure mem addr;
        mem.Machine.Memory.cells.(addr) <- box ints floats kinds s;
        if tracing then sink.Trace.on_heap_store ~addr ~now:!cycles;
        pc := next
    | Native.Alloc (d, n, kind) ->
        set_int ints kinds d
          (Machine.Memory.alloc ~kind mem (int_at ints kinds n));
        pc := next
    | Native.Call (ret_reg, callee, args) ->
        if tracing then sink.Trace.on_call ~callee ~now:!cycles;
        incr frame_uid;
        let f = p.funcs.(callee) in
        let fr =
          Machine.new_frame f ~fidx:callee ~ret_pc:next ~ret_reg
            ~uid:!frame_uid
        in
        Machine.pass_args ~caller:!frame ~callee:fr args;
        stack := !frame :: !stack;
        frame := fr;
        cur_code := f.Native.code;
        cur_costs := costs.(callee);
        cur_pc_base := f.Native.pc_base;
        cur_ints := fr.Machine.ints;
        cur_floats := fr.Machine.floats;
        cur_kinds := fr.Machine.kinds;
        cur_soff := fr.Machine.soff;
        pc := 0
    | Native.Builtin (d, b, args) ->
        unbox ints floats kinds d
          (Machine.eval_builtin b
             (List.map (fun r -> box ints floats kinds r) args));
        pc := next
    | Native.Print (_, r) ->
        st.output <- box ints floats kinds r :: st.output;
        pc := next
    | Native.Jump t -> pc := t
    | Native.Branch (r, a, b) ->
        let taken =
          if Bytes.get kinds r = '\000' then ints.(r) <> 0
          else floats.(r) <> 0.
        in
        pc := if taken then a else b
    | Native.Return rv -> (
        if tracing && !stack <> [] then sink.Trace.on_return ~now:!cycles;
        match !stack with
        | [] -> running := false
        | caller :: rest ->
            let fr = !frame in
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
            cur_ints := caller.Machine.ints;
            cur_floats := caller.Machine.floats;
            cur_kinds := caller.Machine.kinds;
            cur_soff := caller.Machine.soff)
    | Native.Sloop (stl, nlocals) ->
        loop_anno_cycles := !loop_anno_cycles + cost;
        if tracing then
          sink.Trace.on_sloop ~stl ~nlocals ~frame:!frame.Machine.uid
            ~now:!cycles;
        pc := next
    | Native.Eloop stl ->
        loop_anno_cycles := !loop_anno_cycles + cost;
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
        if tracing then
          sink.Trace.on_local_load ~frame:!frame.Machine.uid ~slot:s
            ~pc:(!cur_pc_base + !pc) ~now:!cycles;
        pc := next
    | Native.Swl s ->
        locals_cycles := !locals_cycles + cost;
        if tracing then
          sink.Trace.on_local_store ~frame:!frame.Machine.uid ~slot:s
            ~now:!cycles;
        pc := next
    | Native.Tls_enter stl -> (
        match (speculate, List.assoc_opt stl p.stl_plans) with
        | Some speculate, Some plan
          when plan.Native.plan_func = !frame.Machine.fidx ->
            st.cycles <- !cycles;
            st.icount <- !icount;
            let fr, resume = speculate st plan !frame in
            cycles := st.cycles;
            icount := st.icount;
            frame := fr;
            cur_ints := fr.Machine.ints;
            cur_floats := fr.Machine.floats;
            cur_kinds := fr.Machine.kinds;
            pc := resume
        | _ -> pc := next)
    | Native.Tls_iter_end _ | Native.Tls_exit _ -> pc := next
  done;
  { cycles = !cycles; output = List.rev st.output; memory = mem;
    instructions = !icount; locals_cycles = !locals_cycles;
    read_stats_cycles = !read_stats_cycles;
    loop_anno_cycles = !loop_anno_cycles }

let run ?(sink = Trace.null_sink) ?(tracing = false) ?(fuel = 500_000_000) p =
  exec ~sink ~tracing ~fuel ~speculate:None p
