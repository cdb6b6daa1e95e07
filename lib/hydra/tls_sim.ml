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

exception Out_of_fuel of int

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
  let frame_uid = ref 0 in
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
  let new_frame fidx ret_pc ret_reg args =
    let f = p.funcs.(fidx) in
    let slots = Array.make (max f.Native.nslots 1) Value.zero in
    List.iteri (fun i v -> slots.(i) <- v) args;
    incr frame_uid;
    {
      Machine.fidx;
      slots;
      regs = Array.make (max f.Native.nregs 1) Value.zero;
      ret_pc;
      ret_reg;
      uid = !frame_uid;
    }
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
    let snapshot = Array.copy master.Machine.slots in
    (* master-side reduction accumulators start from the pre-loop values *)
    let red_acc =
      List.map (fun (slot, op) -> (slot, op, ref snapshot.(slot))) plan.Native.reductions
    in
    let restart_penalty =
      config.Config.violation_restart + List.length plan.Native.invariants
    in
    let seed_frame rank =
      incr frame_uid;
      let slots = Array.copy snapshot in
      List.iter
        (fun (slot, step) ->
          slots.(slot) <- Value.Int (Value.to_int snapshot.(slot) + (rank * step)))
        plan.Native.inductors;
      List.iter
        (fun (slot, op) -> slots.(slot) <- Machine.reduction_identity op)
        plan.Native.reductions;
      {
        Machine.fidx = plan.Native.plan_func;
        slots;
        regs = Array.make (max p.funcs.(plan.Native.plan_func).Native.nregs 1) Value.zero;
        ret_pc = -1;
        ret_reg = None;
        uid = !frame_uid;
      }
    in
    let spawn slot rank now =
      let write_buf, read_set, read_lines, write_lines = slot_tables.(slot) in
      let t =
        {
          rank;
          pc = plan.Native.body_start;
          frames = [ seed_frame rank ];
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
    (* the thread of rank [rank], if in flight (ranks are unique) *)
    let rec find_from rank i =
      if i < 0 then None
      else
        match cpus.(i) with
        | Some t as found when t.rank = rank -> found
        | _ -> find_from rank (i - 1)
    in
    let find_thread rank = find_from rank (ncpus - 1) in
    let restart (t : thread) ~at =
      ms.m_violations <- ms.m_violations + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_violation { rank = t.rank; now = at });
      clear_tables t;
      t.pending_output <- [];
      t.nested <- 0;
      t.frames <- [ seed_frame t.rank ];
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
    (* speculative load for thread t into [regs.(d)]; returns the extra
       cycles of a cross-thread forward *)
    let spec_load (t : thread) addr ~pc regs d =
      match Itbl.find_opt t.write_buf addr with
      | Some v ->
          regs.(d) <- v;
          0
      | None ->
          let extra =
            match forwarded addr (t.rank - 1) with
            | Some v ->
                ms.m_forwards <- ms.m_forwards + 1;
                regs.(d) <- v;
                config.Config.store_load_communication
            | None ->
                (* a misspeculated negative address traps here and
                   squashes with the thread *)
                regs.(d) <- Machine.Memory.load mem addr;
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
      let regs = frame.Machine.regs in
      let slots = frame.Machine.slots in
      let next = t.pc + 1 in
      (try
         match ins with
         | Native.Const (r, v) ->
             regs.(r) <- v;
             t.pc <- next
         | Native.Mov (d, s) ->
             regs.(d) <- regs.(s);
             t.pc <- next
         | Native.Unop (d, op, s) ->
             regs.(d) <- Machine.eval_unop op regs.(s);
             t.pc <- next
         | Native.Binop (d, op, a, b) ->
             regs.(d) <- Machine.eval_binop op regs.(a) regs.(b);
             t.pc <- next
         | Native.Ld_local (d, s) ->
             regs.(d) <- slots.(s);
             t.pc <- next
         | Native.St_local (s, r) ->
             slots.(s) <- regs.(r);
             t.pc <- next
         | Native.Ld_heap (d, a) ->
             let addr = Machine.int_operand regs.(a) in
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
               cost := !cost + spec_load t addr ~pc:fpc regs d;
               check_overflow t;
               t.pc <- next
             end
         | Native.St_heap (a, s) ->
             let addr = Machine.int_operand regs.(a) in
             spec_store t addr regs.(s) ~at:n;
             check_overflow t;
             t.pc <- next
         | Native.Alloc (d, nreg, kind) ->
             regs.(d) <-
               Value.Int
                 (Machine.Memory.alloc ~kind mem
                    (Machine.int_operand regs.(nreg)));
             t.pc <- next
         | Native.Call (ret_reg, callee, args) ->
             let argv = List.map (fun r -> regs.(r)) args in
             t.frames <- new_frame callee next ret_reg argv :: t.frames;
             t.pc <- 0
         | Native.Builtin (d, b, args) ->
             regs.(d) <-
               Machine.eval_builtin b (List.map (fun r -> regs.(r)) args);
             t.pc <- next
         | Native.Print (_, r) ->
             t.pending_output <- regs.(r) :: t.pending_output;
             t.pc <- next
         | Native.Jump tgt -> t.pc <- tgt
         | Native.Branch (r, a, b) ->
             t.pc <- (if Value.truthy regs.(r) then a else b)
         | Native.Return rv -> (
             let v = Option.map (fun r -> regs.(r)) rv in
             match t.frames with
             | [ _ ] ->
                 (* returning out of the base frame from inside a
                    speculative thread: only reachable on a misspeculated
                    path (real exits run Tls_exit first) — trap/squash *)
                 t.status <- Trapped "speculative return past loop frame"
             | _ :: (caller :: _ as rest) ->
                 (match (frame.Machine.ret_reg, v) with
                 | Some d, Some v -> caller.Machine.regs.(d) <- v
                 | Some d, None -> caller.Machine.regs.(d) <- Value.zero
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
          let base_frame = List.nth t.frames (List.length t.frames - 1) in
          acc := Machine.reduction_merge op !acc base_frame.Machine.slots.(slot))
        red_acc;
      output := t.pending_output @ !output;
      ms.m_committed <- ms.m_committed + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_commit { rank = t.rank; now = !cycles })
    in
    (* main speculation loop *)
    let result = ref None in
    while Option.is_none !result do
      (* 0. refill free CPUs with the next iterations (optimistic spawn) *)
      if Option.is_none !exit_pending then
        for i = 0 to ncpus - 1 do
          if Option.is_none cpus.(i) then begin
            cpus.(i) <- Some (spawn i !next_iter (!now + config.Config.loop_eoi));
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
              for i = 0 to ncpus - 1 do
                match cpus.(i) with
                | Some th when th.rank = t.rank -> cpus.(i) <- None
                | _ -> ()
              done;
              incr head_rank
          | Exit_taken resume when t.ready_at <= !now ->
              commit t;
              let base_frame = List.nth t.frames (List.length t.frames - 1) in
              (* install merged reduction results *)
              List.iter
                (fun (slot, _, acc) -> base_frame.Machine.slots.(slot) <- !acc)
                red_acc;
              result := Some (base_frame, resume)
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
        (* 3. advance time *)
        if not !progressed then begin
          let next_time = ref max_int in
          for i = 0 to ncpus - 1 do
            match cpus.(i) with
            | Some ({ status = Running | Iter_done | Exit_taken _; _ } as t)
              when t.ready_at > !now && t.ready_at < !next_time ->
                next_time := t.ready_at
            | _ -> ()
          done;
          now := if !next_time = max_int then !now + 1 else !next_time
        end
      end
    done;
    let base_frame, resume = Option.get !result in
    cycles := !now + config.Config.loop_shutdown;
    ms.m_spec_cycles <- ms.m_spec_cycles + (!cycles - spec_start);
    (* rebuild a frame whose regs/slots master will keep using *)
    let mf =
      {
        master with
        Machine.slots = base_frame.Machine.slots;
        regs = base_frame.Machine.regs;
      }
    in
    (mf, resume)
  in

  (* ---------------- sequential (master) execution ---------------- *)
  let stack = ref [] in
  let frame = ref (new_frame p.main (-1) None []) in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let f = p.funcs.(!frame.Machine.fidx) in
    let ins = f.Native.code.(!pc) in
    incr icount;
    if !icount > fuel then raise (Out_of_fuel fuel);
    cycles := !cycles + costs.(!frame.Machine.fidx).(!pc);
    let regs = !frame.Machine.regs in
    let slots = !frame.Machine.slots in
    let next = !pc + 1 in
    match ins with
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
        regs.(d) <- Machine.Memory.load mem (Machine.int_operand regs.(a));
        pc := next
    | Native.St_heap (a, s) ->
        Machine.Memory.store mem (Machine.int_operand regs.(a)) regs.(s);
        pc := next
    | Native.Alloc (d, n, kind) ->
        regs.(d) <-
          Value.Int
            (Machine.Memory.alloc ~kind mem (Machine.int_operand regs.(n)));
        pc := next
    | Native.Call (ret_reg, callee, args) ->
        let argv = List.map (fun r -> regs.(r)) args in
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
    | Native.Branch (r, a, b) -> pc := (if Value.truthy regs.(r) then a else b)
    | Native.Return rv -> (
        let v = Option.map (fun r -> regs.(r)) rv in
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
    | Native.Sloop _ | Native.Eloop _ | Native.Eoi _ | Native.Read_stats _
    | Native.Lwl _ | Native.Swl _ ->
        pc := next
    | Native.Tls_iter_end _ | Native.Tls_exit _ -> pc := next
    | Native.Tls_enter stl -> (
        match List.assoc_opt stl p.stl_plans with
        | Some plan when plan.Native.plan_func = !frame.Machine.fidx ->
            let mf, resume = run_speculative plan !frame in
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
