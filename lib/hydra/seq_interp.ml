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

exception Out_of_fuel of int

let run ?(sink = Trace.null_sink) ?(tracing = false) ?(fuel = 500_000_000)
    (p : Native.program) : result =
  let mem = Machine.Memory.create ~heap_base:p.heap_base in
  let output = ref [] in
  let cycles = ref 0 in
  let icount = ref 0 in
  (* the annotation cycles of paper Figure 6, by kind *)
  let locals_cycles = ref 0 and read_stats_cycles = ref 0 in
  let loop_anno_cycles = ref 0 in
  let frame_uid = ref 0 in
  let new_frame fidx ret_pc ret_reg args =
    let f = p.funcs.(fidx) in
    let slots = Array.make (max f.nslots 1) Value.zero in
    List.iteri (fun i v -> slots.(i) <- v) args;
    incr frame_uid;
    {
      Machine.fidx;
      slots;
      regs = Array.make (max f.nregs 1) Value.zero;
      ret_pc;
      ret_reg;
      uid = !frame_uid;
    }
  in
  let stack = ref [] in
  let frame = ref (new_frame p.main (-1) None []) in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let f = p.funcs.(!frame.Machine.fidx) in
    if !pc < 0 || !pc >= Array.length f.code then
      raise (Machine.Trap (Printf.sprintf "pc out of range in %s" f.name));
    let ins = f.code.(!pc) in
    incr icount;
    if !icount > fuel then raise (Out_of_fuel fuel);
    let cost =
      if tracing then Native.instr_cost ins
      else
        match ins with
        | Native.Sloop _ | Native.Eloop _ | Native.Eoi _ | Native.Read_stats _
        | Native.Lwl _ | Native.Swl _ ->
            0
        | _ -> Native.instr_cost ins
    in
    cycles := !cycles + cost;
    let regs = !frame.Machine.regs in
    let slots = !frame.Machine.slots in
    let next = !pc + 1 in
    (match ins with
    | Native.Const (r, v) ->
        regs.(r) <- v;
        pc := next
    | Native.Mov (d, s) ->
        regs.(d) <- regs.(s);
        pc := next
    | Native.Unop (d, op, s) ->
        regs.(d) <- Machine.eval_unop op regs.(s);
        pc := next
    | Native.Binop (d, op, a, b) ->
        regs.(d) <- Machine.eval_binop op regs.(a) regs.(b);
        pc := next
    | Native.Ld_local (d, s) ->
        regs.(d) <- slots.(s);
        pc := next
    | Native.St_local (s, r) ->
        slots.(s) <- regs.(r);
        pc := next
    | Native.Ld_heap (d, a) ->
        let addr = Machine.int_operand regs.(a) in
        regs.(d) <- Machine.Memory.load mem addr;
        if tracing then
          sink.Trace.on_heap_load ~addr ~pc:(f.pc_base + !pc) ~now:!cycles;
        pc := next
    | Native.St_heap (a, s) ->
        let addr = Machine.int_operand regs.(a) in
        Machine.Memory.store mem addr regs.(s);
        if tracing then sink.Trace.on_heap_store ~addr ~now:!cycles;
        pc := next
    | Native.Alloc (d, n, kind) ->
        regs.(d) <-
          Value.Int
            (Machine.Memory.alloc ~kind mem (Machine.int_operand regs.(n)));
        pc := next
    | Native.Call (ret_reg, callee, args) ->
        let argv = List.map (fun r -> regs.(r)) args in
        if tracing then sink.Trace.on_call ~callee ~now:!cycles;
        stack := !frame :: !stack;
        frame := new_frame callee next ret_reg argv;
        pc := 0
    | Native.Builtin (d, b, args) ->
        regs.(d) <- Machine.eval_builtin b (List.map (fun r -> regs.(r)) args);
        pc := next
    | Native.Print (_, r) ->
        output := regs.(r) :: !output;
        pc := next
    | Native.Jump t -> pc := t
    | Native.Branch (r, a, b) ->
        pc := (if Value.truthy regs.(r) then a else b)
    | Native.Return rv -> (
        let v = Option.map (fun r -> regs.(r)) rv in
        if tracing && !stack <> [] then sink.Trace.on_return ~now:!cycles;
        match !stack with
        | [] -> running := false
        | caller :: rest ->
            (match (!frame.Machine.ret_reg, v) with
            | Some d, Some v -> caller.Machine.regs.(d) <- v
            | Some d, None -> caller.Machine.regs.(d) <- Value.zero
            | None, _ -> ());
            pc := !frame.Machine.ret_pc;
            frame := caller;
            stack := rest)
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
            ~pc:(f.pc_base + !pc) ~now:!cycles;
        pc := next
    | Native.Swl s ->
        locals_cycles := !locals_cycles + cost;
        if tracing then
          sink.Trace.on_local_store ~frame:!frame.Machine.uid ~slot:s
            ~now:!cycles;
        pc := next
    | Native.Tls_enter _ | Native.Tls_iter_end _ | Native.Tls_exit _ ->
        pc := next)
  done;
  { cycles = !cycles; output = List.rev !output; memory = mem;
    instructions = !icount; locals_cycles = !locals_cycles;
    read_stats_cycles = !read_stats_cycles;
    loop_anno_cycles = !loop_anno_cycles }
