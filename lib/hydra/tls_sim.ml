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

let run ?(config = Config.default) ?(fuel = 2_000_000_000) ?(sync = false)
    ?(obs = Obs.Sink.null) (p : Native.program) : result =
  (* With [sync], the speculation hardware learns the PCs of loads whose
     speculatively-read data was later overwritten (violations) and, on
     subsequent executions, delays those loads until the producing store
     is visible instead of restarting — the synchronization mechanism of
     the paper's citations [10]/[30]. The learned set persists across
     loop activations, like a violation-prediction table. *)
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
  let run_speculative (st : Seq_interp.state) (plan : Native.stl_plan)
      (master : Machine.frame) : Machine.frame * int (* resume pc *) =
    let mem = st.Seq_interp.mem in
    ms.m_loops <- ms.m_loops + 1;
    let spec_start = st.cycles in
    st.cycles <- st.cycles + config.Config.loop_startup;
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
          Machine.set_int fr i (x0 + (rank * step)))
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
    let now = ref st.cycles in
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
                (Obs.Event.Tls_overflow_stall { rank = t.rank; now = st.cycles })
          end
        end
    in
    (* execute one instruction of thread t at time n; returns unit *)
    let step (t : thread) ~n =
      let frame = List.hd t.frames in
      let fidx = frame.Machine.fidx in
      let f = p.funcs.(fidx) in
      let ins = f.Native.code.(t.pc) in
      st.icount <- st.icount + 1;
      if st.icount > fuel then raise (Out_of_fuel fuel);
      let cost = ref st.costs.(fidx).(t.pc) in
      let next = t.pc + 1 in
      (try
         match ins with
         | Native.Const _ | Native.Mov _ | Native.Unop _ | Native.Binop _
         | Native.Ld_local _ | Native.St_local _ ->
             Seq_interp.exec_local frame.Machine.ints frame.Machine.floats
               frame.Machine.kinds frame.Machine.soff ins;
             t.pc <- next
         | Native.Ld_heap (d, a) ->
             let addr = Machine.get_int frame a in
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
             let addr = Machine.get_int frame a in
             spec_store t addr (Machine.get frame s) ~at:n;
             check_overflow t;
             t.pc <- next
         | Native.Alloc (d, nreg, kind) ->
             Machine.set_int frame d
               (Machine.Memory.alloc ~kind mem (Machine.get_int frame nreg));
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
             t.pc <- (if Machine.nonzero frame r then a else b)
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
      st.output <- t.pending_output @ st.output;
      ms.m_committed <- ms.m_committed + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_commit { rank = t.rank; now = st.cycles })
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
    st.cycles <- !now + config.Config.loop_shutdown;
    ms.m_spec_cycles <- ms.m_spec_cycles + (st.cycles - spec_start);
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

  (* sequential code runs in [Seq_interp]'s loop, which hands each
     selected region to [run_speculative] *)
  let r =
    Seq_interp.exec ~sink:Trace.null_sink ~tracing:false ~fuel
      ~speculate:(Some run_speculative) p
  in
  {
    cycles = r.Seq_interp.cycles;
    output = r.Seq_interp.output;
    memory = r.Seq_interp.memory;
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
