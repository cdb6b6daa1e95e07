open Ir

type spec_stats = {
  threads_committed : int;
  violations : int;
  overflow_stalls : int;
  forwarded_loads : int;
  loops_entered : int;
  spec_cycles : int;
  sync_stalls : int;
      (** loads delayed by learned synchronization (with [~sync:true]) *)
}

type result = {
  cycles : int;
  output : Value.t list;
  memory : Machine.Memory.t;
  stats : spec_stats;
}

exception Out_of_fuel = Machine.Out_of_fuel

type status =
  | Running
  | Stalled                     (* buffer overflow; resumes as head *)
  | Waiting_addr of int         (* learned sync: wait for a producer store *)
  | Iter_done                   (* reached Tls_iter_end; awaiting commit *)
  | Exit_taken of int           (* reached Tls_exit; pc to resume after *)
  | Trapped of string           (* speculative trap; fatal only as head *)

(* Speculative state is keyed by word address, line number or load PC:
   plain ints, so the tables skip the polymorphic hash and compare. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (a : int) = a land max_int
end)

type thread = {
  rank : int;
  mutable pc : int;
  mutable frames : Machine.frame list; (* non-empty; head = current *)
  seed : Machine.frame; (* the base of [frames]: its CPU slot's seed frame *)
  mutable ready_at : int;
  mutable status : status;
  write_buf : Value.t Itbl.t;
  read_set : int Itbl.t; (* word addr -> PC of the reading load *)
  read_lines : unit Itbl.t;
  write_lines : unit Itbl.t;
  mutable pending_output : Value.t list; (* reversed *)
  mutable nested : int; (* dynamic re-entries of the same STL (recursion) *)
  mutable stalled_once : bool;
}

let clear_tables (t : thread) =
  Itbl.clear t.write_buf;
  Itbl.clear t.read_set;
  Itbl.clear t.read_lines;
  Itbl.clear t.write_lines

type mstats = {
  mutable m_committed : int;
  mutable m_violations : int;
  mutable m_stalls : int;
  mutable m_forwards : int;
  mutable m_loops : int;
  mutable m_spec_cycles : int;
  mutable m_sync_stalls : int;
}

(* ---------------- register files ---------------- *)
(* The helpers of the hot loops live here, not in [Machine]: the dev
   profile compiles with [-opaque], which turns every cross-module call
   into an out-of-line call through the module block. Kind tags are
   [Machine.kind_int] ('\000') and [Machine.kind_float] ('\001'). *)

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

let branch_taken (fr : Machine.frame) r =
  if Bytes.get fr.Machine.kinds r = '\000' then fr.Machine.ints.(r) <> 0
  else fr.Machine.floats.(r) <> 0.

let int_reg (fr : Machine.frame) r = int_at fr.Machine.ints fr.Machine.kinds r

(* The frame-local instructions: [Const], [Mov], [Unop], [Binop],
   [Ld_local] and [St_local]. Operand kinds are checked here, at the
   point of use, with [Machine.eval_binop]'s trap messages. *)
let exec_local (fr : Machine.frame) (ins : Native.instr) =
  let ints = fr.Machine.ints
  and floats = fr.Machine.floats
  and kinds = fr.Machine.kinds in
  match ins with
  | Native.Const (r, Value.Int n) -> set_int ints kinds r n
  | Native.Const (r, Value.Float x) -> set_float floats kinds r x
  | Native.Mov (d, s) -> move ints floats kinds ~src:s ~dst:d
  | Native.Ld_local (d, s) ->
      move ints floats kinds ~src:(fr.Machine.soff + s) ~dst:d
  | Native.St_local (s, r) ->
      move ints floats kinds ~src:r ~dst:(fr.Machine.soff + s)
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
  | _ -> invalid_arg "Tls_sim.exec_local"

let run ?(config = Config.default) ?(fuel = 2_000_000_000) ?(sync = false)
    ?(obs = Obs.Sink.null) (p : Native.program) : result =
  (* With [sync], the speculation hardware learns the PCs of loads whose
     speculatively-read data was later overwritten (violations) and, on
     subsequent executions, delays those loads until the producing store
     is visible instead of restarting — the synchronization mechanism of
     the paper's citations [10]/[30]. The learned set persists across
     loop activations, like a violation-prediction table. *)
  let mem = Machine.Memory.create ~heap_base:p.heap_base in
  let output = ref [] in
  let cycles = ref 0 in
  let icount = ref 0 in
  let ms =
    {
      m_committed = 0;
      m_violations = 0;
      m_stalls = 0;
      m_forwards = 0;
      m_loops = 0;
      m_spec_cycles = 0;
      m_sync_stalls = 0;
    }
  in
  let sync_pcs : unit Itbl.t = Itbl.create 16 in
  (* [costs.(f).(pc)]: the cycle cost of instruction [pc] of function [f] *)
  let costs =
    Array.map (fun f -> Array.map Native.instr_cost f.Native.code) p.funcs
  in
  let ncpus = config.Config.num_cpus in
  (* each CPU slot's write buffer, read set, read lines and write lines:
     every thread spawned on the slot clears and reuses them *)
  let slot_tables =
    Array.init ncpus (fun _ ->
        (Itbl.create 64, Itbl.create 64, Itbl.create 16, Itbl.create 16))
  in
  (* frame uids only key the tracer's local timestamps; no tracer runs here *)
  let new_frame fidx ret_pc ret_reg =
    Machine.new_frame p.funcs.(fidx) ~fidx ~ret_pc ~ret_reg ~uid:0
  in
  let line_of addr = addr / config.Config.line_words in

  (* ---------------- speculative loop execution ---------------- *)
  (* Every scan over [cpus] runs in slot order: which thread steps or is
     restarted first at a given [now] is part of the simulated machine,
     so the order must not change. *)
  let run_speculative (plan : Native.stl_plan) (master : Machine.frame) :
      Machine.frame * int (* resume pc *) =
    ms.m_loops <- ms.m_loops + 1;
    let spec_start = !cycles in
    cycles := !cycles + config.Config.loop_startup;
    (* The master frame is not written until the loop returns, so its
       slots are the pre-loop snapshot every seed frame starts from. *)
    let soff = master.Machine.soff in
    let nslots = Array.length master.Machine.ints - soff in
    let slot_value slot = Machine.get master (soff + slot) in
    (* master-side reduction accumulators start from the pre-loop values *)
    let red_acc =
      List.map (fun (slot, op) -> (slot, op, ref (slot_value slot)))
        plan.Native.reductions
    in
    let inductors =
      List.map
        (fun (slot, step) -> (soff + slot, Value.to_int (slot_value slot), step))
        plan.Native.inductors
    in
    let restart_penalty =
      config.Config.violation_restart + List.length plan.Native.invariants
    in
    (* one seed frame per CPU slot, refilled for every thread the slot
       starts: registers zero, slots from the snapshot, inductors at
       [x0 + rank*step], reductions at their identity *)
    let seeds =
      Array.init ncpus (fun _ -> new_frame plan.Native.plan_func (-1) None)
    in
    let refill (fr : Machine.frame) rank =
      Array.fill fr.Machine.ints 0 soff 0;
      Bytes.fill fr.Machine.kinds 0 soff Machine.kind_int;
      Array.blit master.Machine.ints soff fr.Machine.ints soff nslots;
      Array.blit master.Machine.floats soff fr.Machine.floats soff nslots;
      Bytes.blit master.Machine.kinds soff fr.Machine.kinds soff nslots;
      List.iter
        (fun (i, x0, step) ->
          set_int fr.Machine.ints fr.Machine.kinds i (x0 + (rank * step)))
        inductors;
      List.iter
        (fun (slot, op) ->
          Machine.set fr (soff + slot) (Machine.reduction_identity op))
        plan.Native.reductions
    in
    let spawn slot rank now =
      let write_buf, read_set, read_lines, write_lines = slot_tables.(slot) in
      refill seeds.(slot) rank;
      let t =
        {
          rank;
          pc = plan.Native.body_start;
          frames = [ seeds.(slot) ];
          seed = seeds.(slot);
          ready_at = now;
          status = Running;
          write_buf;
          read_set;
          read_lines;
          write_lines;
          pending_output = [];
          nested = 0;
          stalled_once = false;
        }
      in
      clear_tables t;
      t
    in
    let cpus : thread option array = Array.make ncpus None in
    let next_iter = ref 0 in
    let head_rank = ref 0 in
    let exit_pending = ref None in
    let now = ref !cycles in
    (* The ranks in flight are exactly [head_rank, next_iter): spawns
       take [next_iter], commits advance [head_rank] and a loop exit
       squashes every rank above its own. There are at most [ncpus] of
       them, so their low bits tell them apart; [rank_cpu] maps those to
       the CPU slot holding the thread. *)
    let rank_mask =
      let rec pow2 n = if n >= ncpus then n else pow2 (2 * n) in
      pow2 1 - 1
    in
    let rank_cpu = Array.make (rank_mask + 1) 0 in
    let find_thread rank =
      if rank >= !head_rank && rank < !next_iter then
        cpus.(rank_cpu.(rank land rank_mask))
      else None
    in
    let restart (t : thread) ~at =
      ms.m_violations <- ms.m_violations + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_violation { rank = t.rank; now = at });
      clear_tables t;
      t.pending_output <- [];
      t.nested <- 0;
      refill t.seed t.rank;
      t.frames <- [ t.seed ];
      t.pc <- plan.Native.body_start;
      t.status <- Running;
      t.stalled_once <- false;
      t.ready_at <- at + restart_penalty
    in
    (* violate all threads with rank >= r *)
    let violate_from r ~at =
      (match !exit_pending with
      | Some (er, _) when er >= r -> exit_pending := None
      | _ -> ());
      for i = 0 to ncpus - 1 do
        match cpus.(i) with
        | Some t when t.rank >= r -> restart t ~at
        | _ -> ()
      done
    in
    let squash_younger r =
      for i = 0 to ncpus - 1 do
        match cpus.(i) with
        | Some t when t.rank > r -> cpus.(i) <- None
        | _ -> ()
      done;
      next_iter := r + 1
    in
    (* is [addr] buffered by a thread of rank [head_rank..r]? *)
    let rec buffered_older addr r =
      r >= !head_rank
      && ((match find_thread r with
          | Some th -> Itbl.mem th.write_buf addr
          | None -> false)
         || buffered_older addr (r - 1))
    in
    (* the value of [addr] buffered by the youngest thread of rank
       [head_rank..r], searching from [r] down *)
    let rec forwarded addr r =
      if r < !head_rank then None
      else
        match find_thread r with
        | Some th -> (
            match Itbl.find_opt th.write_buf addr with
            | Some _ as v -> v
            | None -> forwarded addr (r - 1))
        | None -> forwarded addr (r - 1)
    in
    (* speculative load for thread t into register [d] of [fr]; returns
       the extra cycles of a cross-thread forward *)
    let spec_load (t : thread) addr ~pc fr d =
      match Itbl.find_opt t.write_buf addr with
      | Some v ->
          Machine.set fr d v;
          0
      | None ->
          let extra =
            match forwarded addr (t.rank - 1) with
            | Some v ->
                ms.m_forwards <- ms.m_forwards + 1;
                Machine.set fr d v;
                config.Config.store_load_communication
            | None ->
                (* a misspeculated negative address traps here and
                   squashes with the thread *)
                Machine.set fr d (Machine.Memory.load mem addr);
                0
          in
          Itbl.replace t.read_set addr pc;
          Itbl.replace t.read_lines (line_of addr) ();
          extra
    in
    (* learned synchronization: should this load wait for a producer? *)
    let must_wait (t : thread) addr ~pc =
      sync
      && Itbl.mem sync_pcs pc
      && t.rank <> !head_rank
      && (not (Itbl.mem t.write_buf addr))
      && not (buffered_older addr (t.rank - 1))
    in
    (* can a Waiting_addr thread resume? *)
    let wait_satisfied (t : thread) addr =
      t.rank = !head_rank || buffered_older addr (t.rank - 1)
    in
    let spec_store (t : thread) addr v ~at =
      Itbl.replace t.write_buf addr v;
      Itbl.replace t.write_lines (line_of addr) ();
      (* violation detection against more-speculative threads *)
      let victim = ref max_int in
      for i = 0 to ncpus - 1 do
        match cpus.(i) with
        | Some th
          when th.rank > t.rank && th.rank < !victim && Itbl.mem th.read_set addr
          ->
            victim := th.rank
        | _ -> ()
      done;
      if !victim < max_int then begin
        if sync then
          (* learn the violating load so future executions synchronize *)
          for i = 0 to ncpus - 1 do
            match cpus.(i) with
            | Some th when th.rank >= !victim -> (
                match Itbl.find_opt th.read_set addr with
                | Some load_pc -> Itbl.replace sync_pcs load_pc ()
                | None -> ())
            | _ -> ()
          done;
        violate_from !victim ~at
      end
    in
    let check_overflow (t : thread) =
      if t.rank <> !head_rank then
        if
          Itbl.length t.read_lines > config.Config.load_buffer_lines
          || Itbl.length t.write_lines > config.Config.store_buffer_lines
        then begin
          t.status <- Stalled;
          if not t.stalled_once then begin
            t.stalled_once <- true;
            ms.m_stalls <- ms.m_stalls + 1;
            if Obs.Sink.enabled obs then
              Obs.Sink.emit obs
                (Obs.Event.Tls_overflow_stall { rank = t.rank; now = !cycles })
          end
        end
    in
    (* execute one instruction of thread t at time n; returns unit *)
    let step (t : thread) ~n =
      let frame = List.hd t.frames in
      let fidx = frame.Machine.fidx in
      let f = p.funcs.(fidx) in
      let ins = f.Native.code.(t.pc) in
      incr icount;
      if !icount > fuel then raise (Out_of_fuel fuel);
      let cost = ref costs.(fidx).(t.pc) in
      let next = t.pc + 1 in
      (try
         match ins with
         | Native.Const _ | Native.Mov _ | Native.Unop _ | Native.Binop _
         | Native.Ld_local _ | Native.St_local _ ->
             exec_local frame ins;
             t.pc <- next
         | Native.Ld_heap (d, a) ->
             let addr = int_reg frame a in
             let fpc = f.Native.pc_base + t.pc in
             if must_wait t addr ~pc:fpc then begin
               ms.m_sync_stalls <- ms.m_sync_stalls + 1;
               if Obs.Sink.enabled obs then
                 Obs.Sink.emit obs
                   (Obs.Event.Tls_sync_stall { pc = fpc; now = n });
               t.status <- Waiting_addr addr
               (* pc unchanged: the load re-issues when the wait ends *)
             end
             else begin
               cost := !cost + spec_load t addr ~pc:fpc frame d;
               check_overflow t;
               t.pc <- next
             end
         | Native.St_heap (a, s) ->
             let addr = int_reg frame a in
             spec_store t addr (Machine.get frame s) ~at:n;
             check_overflow t;
             t.pc <- next
         | Native.Alloc (d, nreg, kind) ->
             set_int frame.Machine.ints frame.Machine.kinds d
               (Machine.Memory.alloc ~kind mem (int_reg frame nreg));
             t.pc <- next
         | Native.Call (ret_reg, callee, args) ->
             let fr = new_frame callee next ret_reg in
             Machine.pass_args ~caller:frame ~callee:fr args;
             t.frames <- fr :: t.frames;
             t.pc <- 0
         | Native.Builtin (d, b, args) ->
             Machine.set frame d
               (Machine.eval_builtin b
                  (List.map (fun r -> Machine.get frame r) args));
             t.pc <- next
         | Native.Print (_, r) ->
             t.pending_output <- Machine.get frame r :: t.pending_output;
             t.pc <- next
         | Native.Jump tgt -> t.pc <- tgt
         | Native.Branch (r, a, b) ->
             t.pc <- (if branch_taken frame r then a else b)
         | Native.Return rv -> (
             match t.frames with
             | [ _ ] ->
                 (* returning out of the base frame from inside a
                    speculative thread: only reachable on a misspeculated
                    path (real exits run Tls_exit first) — trap/squash *)
                 t.status <- Trapped "speculative return past loop frame"
             | _ :: (caller :: _ as rest) ->
                 (match (frame.Machine.ret_reg, rv) with
                 | Some d, Some r -> Machine.copy ~from:frame r ~into:caller d
                 | Some d, None -> Machine.set caller d Value.zero
                 | None, _ -> ());
                 t.pc <- frame.Machine.ret_pc;
                 t.frames <- rest
             | [] -> assert false)
         | Native.Sloop _ | Native.Eloop _ | Native.Eoi _ | Native.Read_stats _
         | Native.Lwl _ | Native.Swl _ ->
             t.pc <- next
         | Native.Tls_enter stl ->
             if stl = plan.Native.stl_id then t.nested <- t.nested + 1;
             t.pc <- next
         | Native.Tls_iter_end stl ->
             if stl = plan.Native.stl_id && t.nested = 0 then
               t.status <- Iter_done
             else t.pc <- next
         | Native.Tls_exit stl ->
             if stl = plan.Native.stl_id then
               if t.nested > 0 then begin
                 t.nested <- t.nested - 1;
                 t.pc <- next
               end
               else begin
                 t.status <- Exit_taken next;
                 squash_younger t.rank;
                 exit_pending := Some (t.rank, next)
               end
             else t.pc <- next
       with Machine.Trap msg -> t.status <- Trapped msg);
      t.ready_at <- n + !cost
    in
    (* commit thread t (head): flush writes, merge reductions, output.
       Buffered addresses are distinct, so flush order is immaterial. *)
    let commit (t : thread) =
      Itbl.iter (fun addr v -> Machine.Memory.store mem addr v) t.write_buf;
      List.iter
        (fun (slot, op, acc) ->
          acc := Machine.reduction_merge op !acc (Machine.get t.seed (soff + slot)))
        red_acc;
      output := t.pending_output @ !output;
      ms.m_committed <- ms.m_committed + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_commit { rank = t.rank; now = !cycles })
    in
    (* does the head thread have no transition to make at [now]? *)
    let head_quiet () =
      match find_thread !head_rank with
      | None -> true
      | Some t -> (
          match t.status with
          | Running -> true
          | Stalled | Waiting_addr _ | Trapped _ -> false
          | Iter_done | Exit_taken _ -> t.ready_at > !now)
    in
    (* Step 3 of a pass: advance [now] to the next time a thread is due.
       With [~if_idle:true], after a pass that stepped threads, advance
       only if the next pass at [now] would do nothing else: refill no
       CPU, step no thread and make no head transition. *)
    let advance_time ~if_idle =
      let next_time = ref max_int and idle = ref true in
      for i = 0 to ncpus - 1 do
        match cpus.(i) with
        | None -> if Option.is_none !exit_pending then idle := false
        | Some ({ status = Running; _ } as t) ->
            if t.ready_at <= !now then idle := false
            else if t.ready_at < !next_time then next_time := t.ready_at
        | Some ({ status = Iter_done | Exit_taken _; _ } as t) ->
            if t.ready_at > !now && t.ready_at < !next_time then
              next_time := t.ready_at
        | Some _ -> ()
      done;
      if (not if_idle) || (!idle && head_quiet ()) then
        now := if !next_time = max_int then !now + 1 else !next_time
    in
    (* main speculation loop *)
    let result = ref None in
    while Option.is_none !result do
      (* 0. refill free CPUs with the next iterations (optimistic spawn) *)
      if Option.is_none !exit_pending then
        for i = 0 to ncpus - 1 do
          if Option.is_none cpus.(i) then begin
            cpus.(i) <- Some (spawn i !next_iter (!now + config.Config.loop_eoi));
            rank_cpu.(!next_iter land rank_mask) <- i;
            incr next_iter
          end
        done;
      (* 0b. wake synchronized threads whose producer store arrived
         (only learned synchronization ever parks a thread) *)
      if sync then
        for i = 0 to ncpus - 1 do
          match cpus.(i) with
          | Some ({ status = Waiting_addr addr; _ } as t)
            when wait_satisfied t addr ->
              t.status <- Running;
              t.ready_at <- max t.ready_at !now
          | _ -> ()
        done;
      (* 1. head-thread state transitions *)
      (match find_thread !head_rank with
      | Some t -> (
          (match t.status with
          | Stalled | Waiting_addr _ ->
              t.status <- Running (* head never stalls *)
          | Trapped msg -> raise (Machine.Trap msg) (* non-speculative trap *)
          | _ -> ());
          match t.status with
          | Iter_done when t.ready_at <= !now ->
              commit t;
              (* free the CPU; the refill step spawns the next iteration *)
              cpus.(rank_cpu.(t.rank land rank_mask)) <- None;
              incr head_rank
          | Exit_taken resume when t.ready_at <= !now ->
              commit t;
              (* install merged reduction results *)
              List.iter
                (fun (slot, _, acc) -> Machine.set t.seed (soff + slot) !acc)
                red_acc;
              result := Some (t.seed, resume)
          | _ -> ())
      | None -> ());
      if Option.is_none !result then begin
        (* 2. execute ready threads *)
        let progressed = ref false in
        for i = 0 to ncpus - 1 do
          match cpus.(i) with
          | Some ({ status = Running; _ } as t) when t.ready_at <= !now ->
              step t ~n:!now;
              progressed := true
          | _ -> ()
        done;
        (* 3. advance time; after a step, skip the pass that would only
           advance it (under [sync] that pass may also wake threads) *)
        if not !progressed then advance_time ~if_idle:false
        else if not sync then advance_time ~if_idle:true
      end
    done;
    let base_frame, resume = Option.get !result in
    cycles := !now + config.Config.loop_shutdown;
    ms.m_spec_cycles <- ms.m_spec_cycles + (!cycles - spec_start);
    (* master keeps using the exiting thread's register file *)
    let mf =
      {
        master with
        Machine.ints = base_frame.Machine.ints;
        floats = base_frame.Machine.floats;
        kinds = base_frame.Machine.kinds;
      }
    in
    (mf, resume)
  in

  (* ---------------- sequential (master) execution ---------------- *)
  let stack = ref [] in
  let frame = ref (new_frame p.main (-1) None) in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let fr = !frame in
    let fidx = fr.Machine.fidx in
    let ins = p.funcs.(fidx).Native.code.(!pc) in
    incr icount;
    if !icount > fuel then raise (Out_of_fuel fuel);
    cycles := !cycles + costs.(fidx).(!pc);
    let next = !pc + 1 in
    match ins with
    | Native.Const _ | Native.Mov _ | Native.Unop _ | Native.Binop _
    | Native.Ld_local _ | Native.St_local _ ->
        exec_local fr ins;
        pc := next
    | Native.Ld_heap (d, a) ->
        Machine.set fr d (Machine.Memory.load mem (int_reg fr a));
        pc := next
    | Native.St_heap (a, s) ->
        Machine.Memory.store mem (int_reg fr a) (Machine.get fr s);
        pc := next
    | Native.Alloc (d, n, kind) ->
        set_int fr.Machine.ints fr.Machine.kinds d
          (Machine.Memory.alloc ~kind mem (int_reg fr n));
        pc := next
    | Native.Call (ret_reg, callee, args) ->
        let callee_fr = new_frame callee next ret_reg in
        Machine.pass_args ~caller:fr ~callee:callee_fr args;
        stack := fr :: !stack;
        frame := callee_fr;
        pc := 0
    | Native.Builtin (d, b, args) ->
        Machine.set fr d
          (Machine.eval_builtin b (List.map (fun r -> Machine.get fr r) args));
        pc := next
    | Native.Print (_, r) ->
        output := Machine.get fr r :: !output;
        pc := next
    | Native.Jump t -> pc := t
    | Native.Branch (r, a, b) -> pc := (if branch_taken fr r then a else b)
    | Native.Return rv -> (
        match !stack with
        | [] -> running := false
        | caller :: rest ->
            (match (fr.Machine.ret_reg, rv) with
            | Some d, Some r -> Machine.copy ~from:fr r ~into:caller d
            | Some d, None -> Machine.set caller d Value.zero
            | None, _ -> ());
            pc := fr.Machine.ret_pc;
            frame := caller;
            stack := rest)
    | Native.Sloop _ | Native.Eloop _ | Native.Eoi _ | Native.Read_stats _
    | Native.Lwl _ | Native.Swl _ ->
        pc := next
    | Native.Tls_iter_end _ | Native.Tls_exit _ -> pc := next
    | Native.Tls_enter stl -> (
        match List.assoc_opt stl p.stl_plans with
        | Some plan when plan.Native.plan_func = fidx ->
            let mf, resume = run_speculative plan fr in
            frame := mf;
            pc := resume
        | _ -> pc := next)
  done;
  {
    cycles = !cycles;
    output = List.rev !output;
    memory = mem;
    stats =
      {
        threads_committed = ms.m_committed;
        violations = ms.m_violations;
        overflow_stalls = ms.m_stalls;
        forwarded_loads = ms.m_forwards;
        loops_entered = ms.m_loops;
        spec_cycles = ms.m_spec_cycles;
        sync_stalls = ms.m_sync_stalls;
      };
  }
