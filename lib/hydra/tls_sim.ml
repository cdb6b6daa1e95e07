(* The Hydra TLS simulator. Sequential code runs in [Seq_interp]'s loop;
   a selected STL runs here as speculative threads, one loop iteration
   per thread, each on a CPU slot.

   Each CPU slot owns the speculative state of the thread it runs, as
   Hydra's per-CPU buffers do: a write buffer (word address -> value), a
   read set (word address -> PC of the load), and the sets of lines read
   and written. They are [Spec_table]s: open-addressed int tables whose
   [clear] is O(1), so a spawn or a restart does not touch the slots of
   the table's previous thread. Write-buffer entries are unboxed like a
   [Machine.frame]'s file; a value is boxed once, when the commit flush
   stores it to memory.

   One pass of the scheduler refills free CPU slots, wakes synchronized
   threads, makes the head thread's transition, steps every ready
   thread in slot order, and advances time. The step scan also gathers
   what the time advance needs, unless a step restarted or squashed
   another thread or changed the pending loop exit; then the advance
   scans the slots again.

   After each step that leaves a thread running, the thread runs ahead
   through the frame-private instructions that follow (constants,
   moves, ALU ops, local slots, jumps and branches; at most
   [run_ahead_bound]). No other thread can see them, so executing them
   early changes nothing but the host's work. The thread records the
   cycle at which the scheduler would have stepped each one; a pass
   takes a due recorded step exactly as it took the real one, so every
   pass that can change the machine happens at the same cycle as
   before. A pass after which no slot waits for a refill, the head has
   no transition due and [sync] is off is quiet: until the next
   unrecorded step or head transition, the only passes left would take
   recorded steps, so time jumps straight there. *)

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

(* Speculative state is keyed by word address, line number or load PC. *)
module Spec_table = struct
  type t = {
    mutable keys : int array;
    mutable stamps : int array;
    mutable ints : int array;
    mutable floats : float array;
    mutable kinds : Bytes.t;
    mutable live : int array;
    mutable size : int;
    mutable gen : int;
    mutable shift : int;
  }

  (* [2^bits] slots, none live: a stamp of 0 is never a generation *)
  let fresh t bits =
    let cap = 1 lsl bits in
    t.keys <- Array.make cap 0;
    t.stamps <- Array.make cap 0;
    t.ints <- Array.make cap 0;
    t.floats <- Array.make cap 0.;
    t.kinds <- Bytes.make cap Machine.kind_int;
    t.live <- Array.make (cap / 2) 0;
    t.size <- 0;
    t.gen <- 1;
    t.shift <- Sys.int_size - bits

  let create n =
    let rec bits b = if 1 lsl b >= 2 * n then b else bits (b + 1) in
    let t =
      { keys = [||]; stamps = [||]; ints = [||]; floats = [||];
        kinds = Bytes.empty; live = [||]; size = 0; gen = 0; shift = 0 }
    in
    fresh t (bits 3);
    t

  (* multiplicative hashing: the top bits of [k] times an odd constant,
     so neither consecutive keys nor power-of-two strides pile up *)
  let[@inline] home t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

  (* the slot holding [k], or the free slot where it would go; at most
     half the slots are live, so the probe ends *)
  let[@inline] probe t k =
    let keys = t.keys and stamps = t.stamps and gen = t.gen in
    let mask = Array.length keys - 1 in
    let i = ref (home t k) in
    while Array.unsafe_get stamps !i = gen && Array.unsafe_get keys !i <> k do
      i := (!i + 1) land mask
    done;
    !i

  let length t = t.size

  let clear t =
    t.gen <- t.gen + 1;
    t.size <- 0

  let[@inline] find t k =
    let i = probe t k in
    if Array.unsafe_get t.stamps i = t.gen then i else -1

  let[@inline] mem t k = find t k >= 0

  let grow t =
    let keys = t.keys and ints = t.ints and floats = t.floats in
    let kinds = t.kinds and live = t.live and size = t.size in
    fresh t (Sys.int_size - t.shift + 1);
    for j = 0 to size - 1 do
      let o = live.(j) in
      let i = probe t keys.(o) in
      t.stamps.(i) <- t.gen;
      t.keys.(i) <- keys.(o);
      t.ints.(i) <- ints.(o);
      t.floats.(i) <- floats.(o);
      Bytes.set t.kinds i (Bytes.get kinds o);
      t.live.(j) <- i
    done;
    t.size <- size

  (* the slot of [k], inserted if absent; a new slot's value is stale *)
  let rec slot t k =
    let i = probe t k in
    if Array.unsafe_get t.stamps i = t.gen then i
    else if 2 * (t.size + 1) > Array.length t.keys then begin
      grow t;
      slot t k
    end
    else begin
      Array.unsafe_set t.stamps i t.gen;
      Array.unsafe_set t.keys i k;
      t.live.(t.size) <- i;
      t.size <- t.size + 1;
      i
    end

  let[@inline] add t k = ignore (slot t k)
  let[@inline] replace t k v = t.ints.(slot t k) <- v

  let iter t f =
    for j = 0 to t.size - 1 do
      f t t.live.(j)
    done

  (* entry [r] of a frame's file into slot [i], and back *)
  let[@inline] store t i (fr : Machine.frame) r =
    t.ints.(i) <- fr.Machine.ints.(r);
    t.floats.(i) <- fr.Machine.floats.(r);
    Bytes.set t.kinds i (Bytes.get fr.Machine.kinds r)

  let[@inline] load t i (fr : Machine.frame) r =
    fr.Machine.ints.(r) <- t.ints.(i);
    fr.Machine.floats.(r) <- t.floats.(i);
    Bytes.set fr.Machine.kinds r (Bytes.get t.kinds i)

  let box t i : Value.t =
    if Bytes.get t.kinds i = Machine.kind_int then Value.Int t.ints.(i)
    else Value.Float t.floats.(i)
end

(* One record per CPU slot, reset by every spawn on the slot. *)
type thread = {
  mutable live : bool; (* false: the slot holds no thread *)
  mutable rank : int;
  mutable pc : int;
  (* the current frame and its function's code, cost row and [pc_base]:
     they change only at [Call], [Return], spawn and restart *)
  mutable frame : Machine.frame;
  mutable code : Native.instr array;
  mutable costs : int array;
  mutable pc_base : int;
  mutable callers : Machine.frame list; (* innermost first; [] at [seed] *)
  seed : Machine.frame; (* the loop frame: its CPU slot's seed frame *)
  mutable ready_at : int;
  mutable status : status;
  write_buf : Spec_table.t;
  read_set : Spec_table.t; (* word addr -> PC of the reading load *)
  read_lines : Spec_table.t;
  write_lines : Spec_table.t;
  mutable pending_output : Value.t list; (* reversed *)
  mutable nested : int; (* dynamic re-entries of the same STL (recursion) *)
  mutable stalled_once : bool;
  (* Run-ahead record: the frame-private instructions the thread has
     already executed, by the cycle at which the scheduler steps each,
     [ra_at.(ra_next .. ra_len-1)]. While any remain, [ready_at] is the
     first of them and [real_at] the cycle of the thread's next
     unexecuted instruction. *)
  ra_at : int array;
  mutable ra_next : int;
  mutable ra_len : int;
  mutable real_at : int;
}

(* the most frame-private instructions one run-ahead executes: a thread
   that never leaves private code still takes a real step every
   [run_ahead_bound] instructions *)
let run_ahead_bound = 64

let drop_run_ahead (t : thread) =
  t.ra_next <- 0;
  t.ra_len <- 0

(* the cycle of [t]'s next step that is not a recorded one *)
let[@inline] real_ready (t : thread) =
  if t.ra_next < t.ra_len then t.real_at else t.ready_at

let clear_tables (t : thread) =
  Spec_table.clear t.write_buf;
  Spec_table.clear t.read_set;
  Spec_table.clear t.read_lines;
  Spec_table.clear t.write_lines

type mstats = {
  mutable m_committed : int;
  mutable m_violations : int;
  mutable m_stalls : int;
  mutable m_forwards : int;
  mutable m_loops : int;
  mutable m_spec_cycles : int;
  mutable m_sync_stalls : int;
  (* host work, for [Obs.Event.Tls_work] *)
  mutable m_passes : int;
  mutable m_steps : int;
  mutable m_run_ahead : int;
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
      m_passes = 0;
      m_steps = 0;
      m_run_ahead = 0;
    }
  in
  let sync_pcs = Spec_table.create 16 in
  let ncpus = config.Config.num_cpus in
  (* each CPU slot's write buffer, read set, read lines and write lines:
     every thread spawned on the slot clears and reuses them *)
  let slot_tables =
    Array.init ncpus (fun _ ->
        ( Spec_table.create 64,
          Spec_table.create 64,
          Spec_table.create 16,
          Spec_table.create 16 ))
  in
  let slot_run_ahead = Array.init ncpus (fun _ -> Array.make run_ahead_bound 0) in
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
    let nfile = Array.length master.Machine.ints in
    let slot_value slot = Machine.get master (soff + slot) in
    (* master-side reduction accumulators start from the pre-loop values *)
    let red_acc =
      List.map (fun (slot, op) -> (slot, op, ref (slot_value slot)))
        plan.Native.reductions
    in
    (* (entry, x0, step) per inductor and (entry, identity) per reduction *)
    let inductors =
      Array.of_list
        (List.map
           (fun (slot, step) -> (soff + slot, Value.to_int (slot_value slot), step))
           plan.Native.inductors)
    in
    let reductions =
      Array.of_list
        (List.map
           (fun (slot, op) -> (soff + slot, Machine.reduction_identity op))
           plan.Native.reductions)
    in
    let restart_penalty =
      config.Config.violation_restart + List.length plan.Native.invariants
    in
    let loop_func = p.funcs.(plan.Native.plan_func) in
    (* one seed frame per CPU slot, refilled for every thread the slot
       starts: registers zero, slots from the snapshot, inductors at
       [x0 + rank*step], reductions at their identity *)
    let seeds =
      Array.init ncpus (fun _ -> new_frame plan.Native.plan_func (-1) None)
    in
    let refill (fr : Machine.frame) rank =
      Array.fill fr.Machine.ints 0 soff 0;
      Bytes.fill fr.Machine.kinds 0 soff Machine.kind_int;
      Array.blit master.Machine.ints soff fr.Machine.ints soff (nfile - soff);
      Array.blit master.Machine.floats soff fr.Machine.floats soff
        (nfile - soff);
      Bytes.blit master.Machine.kinds soff fr.Machine.kinds soff (nfile - soff);
      for j = 0 to Array.length inductors - 1 do
        let i, x0, step = inductors.(j) in
        Machine.set_int fr i (x0 + (rank * step))
      done;
      for j = 0 to Array.length reductions - 1 do
        let i, identity = reductions.(j) in
        Machine.set fr i identity
      done
    in
    (* make [fr] the thread's current frame *)
    let set_frame (t : thread) (fr : Machine.frame) =
      let f = p.funcs.(fr.Machine.fidx) in
      t.frame <- fr;
      t.code <- f.Native.code;
      t.costs <- st.costs.(fr.Machine.fidx);
      t.pc_base <- f.Native.pc_base
    in
    let cpus =
      Array.init ncpus (fun slot ->
          let write_buf, read_set, read_lines, write_lines =
            slot_tables.(slot)
          in
          {
            live = false;
            rank = -1;
            pc = plan.Native.body_start;
            frame = seeds.(slot);
            code = loop_func.Native.code;
            costs = st.costs.(plan.Native.plan_func);
            pc_base = loop_func.Native.pc_base;
            callers = [];
            seed = seeds.(slot);
            ready_at = 0;
            status = Running;
            write_buf;
            read_set;
            read_lines;
            write_lines;
            pending_output = [];
            nested = 0;
            stalled_once = false;
            ra_at = slot_run_ahead.(slot);
            ra_next = 0;
            ra_len = 0;
            real_at = 0;
          })
    in
    (* start iteration [rank] on the empty slot [t] *)
    let spawn (t : thread) rank now =
      refill t.seed rank;
      t.live <- true;
      t.rank <- rank;
      t.pc <- plan.Native.body_start;
      set_frame t t.seed;
      t.callers <- [];
      t.ready_at <- now;
      t.status <- Running;
      t.pending_output <- [];
      t.nested <- 0;
      t.stalled_once <- false;
      drop_run_ahead t;
      clear_tables t
    in
    let free = ref ncpus in (* slots of [cpus] holding no thread *)
    let next_iter = ref 0 in
    let head_rank = ref 0 in
    let exit_pending = ref None in
    let now = ref st.cycles in
    (* set when a step restarts or squashes another thread or changes
       [exit_pending]: the step scan's time-advance data is then stale *)
    let disturbed = ref false in
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
    let in_flight rank = rank >= !head_rank && rank < !next_iter in
    (* the thread of an in-flight [rank] *)
    let thread_of rank = cpus.(rank_cpu.(rank land rank_mask)) in
    let restart (t : thread) ~at =
      ms.m_violations <- ms.m_violations + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_violation { rank = t.rank; now = at });
      clear_tables t;
      t.pending_output <- [];
      t.nested <- 0;
      refill t.seed t.rank;
      set_frame t t.seed;
      t.callers <- [];
      t.pc <- plan.Native.body_start;
      t.status <- Running;
      t.stalled_once <- false;
      drop_run_ahead t;
      t.ready_at <- at + restart_penalty
    in
    (* violate all threads with rank >= r *)
    let violate_from r ~at =
      disturbed := true;
      (match !exit_pending with
      | Some (er, _) when er >= r -> exit_pending := None
      | _ -> ());
      for i = 0 to ncpus - 1 do
        let t = cpus.(i) in
        if t.live && t.rank >= r then restart t ~at
      done
    in
    let squash_younger r =
      disturbed := true;
      for i = 0 to ncpus - 1 do
        let t = cpus.(i) in
        if t.live && t.rank > r then begin
          t.live <- false;
          incr free
        end
      done;
      next_iter := r + 1
    in
    (* is [addr] buffered by a thread of rank [head_rank..r]? *)
    let rec buffered_older addr r =
      r >= !head_rank
      && ((r < !next_iter && Spec_table.mem (thread_of r).write_buf addr)
         || buffered_older addr (r - 1))
    in
    (* copy the value of [addr] buffered by the youngest thread of rank
       [head_rank..r], searching from [r] down, into entry [d] of [fr];
       false if no such thread buffers [addr] *)
    let rec forward addr r fr d =
      r >= !head_rank
      && ((r < !next_iter
          &&
          let wb = (thread_of r).write_buf in
          let i = Spec_table.find wb addr in
          i >= 0
          && begin
               Spec_table.load wb i fr d;
               true
             end)
         || forward addr (r - 1) fr d)
    in
    (* speculative load for thread t into entry [d] of [fr]; returns
       the extra cycles of a cross-thread forward *)
    let spec_load (t : thread) addr ~pc fr d =
      let i = Spec_table.find t.write_buf addr in
      if i >= 0 then begin
        Spec_table.load t.write_buf i fr d;
        0
      end
      else begin
        let extra =
          if forward addr (t.rank - 1) fr d then begin
            ms.m_forwards <- ms.m_forwards + 1;
            config.Config.store_load_communication
          end
          else begin
            (* a misspeculated negative address traps here and squashes
               with the thread *)
            Machine.set fr d (Machine.Memory.load mem addr);
            0
          end
        in
        Spec_table.replace t.read_set addr pc;
        Spec_table.add t.read_lines (line_of addr);
        extra
      end
    in
    (* learned synchronization: should this load wait for a producer? *)
    let must_wait (t : thread) addr ~pc =
      sync
      && Spec_table.mem sync_pcs pc
      && t.rank <> !head_rank
      && (not (Spec_table.mem t.write_buf addr))
      && not (buffered_older addr (t.rank - 1))
    in
    (* can a Waiting_addr thread resume? *)
    let wait_satisfied (t : thread) addr =
      t.rank = !head_rank || buffered_older addr (t.rank - 1)
    in
    (* speculative store of entry [s] of [fr] *)
    let spec_store (t : thread) addr fr s ~at =
      Spec_table.store t.write_buf (Spec_table.slot t.write_buf addr) fr s;
      Spec_table.add t.write_lines (line_of addr);
      (* violation detection against more-speculative threads *)
      let victim = ref max_int in
      for i = 0 to ncpus - 1 do
        let th = cpus.(i) in
        if
          th.live && th.rank > t.rank && th.rank < !victim
          && Spec_table.mem th.read_set addr
        then victim := th.rank
      done;
      if !victim < max_int then begin
        if sync then
          (* learn the violating load so future executions synchronize *)
          for i = 0 to ncpus - 1 do
            let th = cpus.(i) in
            if th.live && th.rank >= !victim then begin
              let j = Spec_table.find th.read_set addr in
              if j >= 0 then
                Spec_table.add sync_pcs th.read_set.Spec_table.ints.(j)
            end
          done;
        violate_from !victim ~at
      end
    in
    let check_overflow (t : thread) ~n =
      if t.rank <> !head_rank then
        if
          Spec_table.length t.read_lines > config.Config.load_buffer_lines
          || Spec_table.length t.write_lines > config.Config.store_buffer_lines
        then begin
          t.status <- Stalled;
          if not t.stalled_once then begin
            t.stalled_once <- true;
            ms.m_stalls <- ms.m_stalls + 1;
            if Obs.Sink.enabled obs then
              Obs.Sink.emit obs
                (Obs.Event.Tls_overflow_stall { rank = t.rank; now = n })
          end
        end
    in
    (* execute one instruction of thread t at time n; returns unit *)
    let step (t : thread) ~n =
      let frame = t.frame in
      let pc = t.pc in
      let ins = t.code.(pc) in
      st.icount <- st.icount + 1;
      if st.icount > fuel then raise (Out_of_fuel fuel);
      let cost = ref t.costs.(pc) in
      let next = pc + 1 in
      (try
         match ins with
         | Native.Const _ | Native.Mov _ | Native.Unop _ | Native.Binop _
         | Native.Ld_local _ | Native.St_local _ ->
             Seq_interp.exec_local frame ins;
             t.pc <- next
         | Native.Ld_heap (d, a) ->
             let addr = Machine.get_int frame a in
             let fpc = t.pc_base + pc in
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
               check_overflow t ~n;
               t.pc <- next
             end
         | Native.St_heap (a, s) ->
             let addr = Machine.get_int frame a in
             spec_store t addr frame s ~at:n;
             check_overflow t ~n;
             t.pc <- next
         | Native.Alloc (d, nreg, kind) ->
             Machine.set_int frame d
               (Machine.Memory.alloc ~kind mem (Machine.get_int frame nreg));
             t.pc <- next
         | Native.Call (ret_reg, callee, args) ->
             let fr = new_frame callee next ret_reg in
             Machine.pass_args ~caller:frame ~callee:fr args;
             t.callers <- frame :: t.callers;
             set_frame t fr;
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
             match t.callers with
             | [] ->
                 (* returning out of the loop frame from inside a
                    speculative thread: only reachable on a misspeculated
                    path (real exits run Tls_exit first) — trap/squash *)
                 t.status <- Trapped "speculative return past loop frame"
             | caller :: rest ->
                 (match (frame.Machine.ret_reg, rv) with
                 | Some d, Some r -> Machine.copy ~from:frame r ~into:caller d
                 | Some d, None -> Machine.set caller d Value.zero
                 | None, _ -> ());
                 t.pc <- frame.Machine.ret_pc;
                 t.callers <- rest;
                 set_frame t caller)
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
    (* After a step that leaves [t] running, execute the frame-private
       instructions that follow it, up to [run_ahead_bound], recording
       the cycle at which the scheduler would step each. Nothing but
       [t]'s own frame sees them, and no other thread's step can change
       what they compute: a restart or squash throws the whole record
       away. An instruction that traps is left to be stepped at its own
       cycle; a trap changes no register. *)
    let run_ahead (t : thread) =
      let frame = t.frame and code = t.code and costs = t.costs in
      let ra_at = t.ra_at in
      let at = ref t.ready_at and k = ref 0 in
      (try
         while !k < run_ahead_bound do
           let pc = t.pc in
           (match Array.unsafe_get code pc with
           | ( Native.Const _ | Native.Mov _ | Native.Unop _ | Native.Binop _
             | Native.Ld_local _ | Native.St_local _ ) as ins ->
               Seq_interp.exec_local frame ins;
               t.pc <- pc + 1
           | Native.Jump tgt -> t.pc <- tgt
           | Native.Branch (r, a, b) ->
               t.pc <- (if Machine.nonzero frame r then a else b)
           | _ -> raise_notrace Exit);
           st.icount <- st.icount + 1;
           if st.icount > fuel then raise (Out_of_fuel fuel);
           Array.unsafe_set ra_at !k !at;
           at := !at + Array.unsafe_get costs pc;
           incr k
         done
       with Exit | Machine.Trap _ -> ());
      if !k > 0 then begin
        ms.m_run_ahead <- ms.m_run_ahead + !k;
        t.ra_next <- 0;
        t.ra_len <- !k;
        t.real_at <- !at
      end
    in
    (* commit thread t (head): flush writes, merge reductions, output.
       Buffered addresses are distinct, so flush order is immaterial. *)
    let flush (wb : Spec_table.t) i =
      Machine.Memory.store mem wb.Spec_table.keys.(i) (Spec_table.box wb i)
    in
    let commit (t : thread) =
      Spec_table.iter t.write_buf flush;
      List.iter
        (fun (slot, op, acc) ->
          acc := Machine.reduction_merge op !acc (Machine.get t.seed (soff + slot)))
        red_acc;
      st.output <- t.pending_output @ st.output;
      ms.m_committed <- ms.m_committed + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_commit { rank = t.rank; now = !now })
    in
    (* does the head thread have no transition to make at [now]? *)
    let head_quiet () =
      (not (in_flight !head_rank))
      ||
      let t = thread_of !head_rank in
      match t.status with
      | Running -> true
      | Stalled | Waiting_addr _ | Trapped _ -> false
      | Iter_done | Exit_taken _ -> t.ready_at > !now
    in
    (* Step 3 of a pass reads the next time a thread is due, whether a
       pass at [now] would still refill a CPU or step a thread ([idle]
       is false then), and the next time something other than a
       recorded step is due ([next_real]). [note] folds one slot into
       all three. *)
    let next_time = ref max_int and idle = ref true in
    let next_real = ref max_int in
    let note (t : thread) =
      if not t.live then begin
        if Option.is_none !exit_pending then idle := false
      end
      else
        match t.status with
        | Running ->
            if t.ready_at <= !now then idle := false
            else if t.ready_at < !next_time then next_time := t.ready_at;
            let r = real_ready t in
            if r < !next_real then next_real := r
        | Iter_done | Exit_taken _ ->
            if t.ready_at > !now && t.ready_at < !next_time then
              next_time := t.ready_at;
            if t.ready_at > !now && t.ready_at < !next_real then
              next_real := t.ready_at
        | Stalled | Waiting_addr _ | Trapped _ -> ()
    in
    (* A pass is quiet when the passes after it, until [next_real], can
       only take recorded steps: no CPU waits for a refill, the head has
       no transition due and no thread can be woken. *)
    let quiet () =
      (!free = 0 || Option.is_some !exit_pending) && (not sync) && head_quiet ()
    in
    (* the recorded steps those passes would take, done *)
    let skip_to target =
      for i = 0 to ncpus - 1 do
        let t = cpus.(i) in
        if t.live && t.ra_next < t.ra_len then begin
          let k = ref t.ra_next in
          while !k < t.ra_len && t.ra_at.(!k) < target do
            incr k
          done;
          t.ra_next <- !k;
          t.ready_at <- (if !k < t.ra_len then t.ra_at.(!k) else t.real_at)
        end
      done;
      now := target
    in
    (* main speculation loop *)
    let result = ref None in
    while Option.is_none !result do
      ms.m_passes <- ms.m_passes + 1;
      (* 0. refill free CPUs with the next iterations (optimistic spawn) *)
      if !free > 0 && Option.is_none !exit_pending then
        for i = 0 to ncpus - 1 do
          if not cpus.(i).live then begin
            spawn cpus.(i) !next_iter (!now + config.Config.loop_eoi);
            decr free;
            rank_cpu.(!next_iter land rank_mask) <- i;
            incr next_iter
          end
        done;
      (* 0b. wake synchronized threads whose producer store arrived
         (only learned synchronization ever parks a thread) *)
      if sync then
        for i = 0 to ncpus - 1 do
          let t = cpus.(i) in
          if t.live then
            match t.status with
            | Waiting_addr addr when wait_satisfied t addr ->
                t.status <- Running;
                t.ready_at <- max t.ready_at !now
            | _ -> ()
        done;
      (* 1. head-thread state transitions *)
      (if in_flight !head_rank then begin
          let t = thread_of !head_rank in
          (match t.status with
          | Stalled | Waiting_addr _ ->
              t.status <- Running (* head never stalls *)
          | Trapped msg -> raise (Machine.Trap msg) (* non-speculative trap *)
          | _ -> ());
          match t.status with
          | Iter_done when t.ready_at <= !now ->
              commit t;
              (* free the CPU; the refill step spawns the next iteration *)
              t.live <- false;
              incr free;
              incr head_rank
          | Exit_taken resume when t.ready_at <= !now ->
              commit t;
              (* install merged reduction results *)
              List.iter
                (fun (slot, _, acc) -> Machine.set t.seed (soff + slot) !acc)
                red_acc;
              result := Some (t.seed, resume)
          | _ -> ()
        end);
      if Option.is_none !result then begin
        (* 2. execute ready threads, noting each slot after its step *)
        let progressed = ref false in
        next_time := max_int;
        idle := true;
        next_real := max_int;
        disturbed := false;
        for i = 0 to ncpus - 1 do
          let t = cpus.(i) in
          (if t.live && t.ready_at <= !now then
             match t.status with
             | Running ->
                 let k = t.ra_next in
                 if k < t.ra_len then begin
                   (* a recorded step: already executed *)
                   t.ra_next <- k + 1;
                   t.ready_at <-
                     (if k + 1 < t.ra_len then t.ra_at.(k + 1) else t.real_at)
                 end
                 else begin
                   step t ~n:!now;
                   ms.m_steps <- ms.m_steps + 1;
                   match t.status with Running -> run_ahead t | _ -> ()
                 end;
                 progressed := true
             | _ -> ());
          note t
        done;
        (* 3. advance [now] to the next time a thread is due. After a
           step, advance in this pass only if the next pass at [now]
           would do nothing else: refill no CPU, step no thread and make
           no head transition (under [sync] that pass may also wake
           threads, so it always runs). A step that disturbed a slot
           already noted makes the notes stale: note every slot again.
           From a quiet pass, go straight to the next real event: the
           passes skipped would only have taken recorded steps. *)
        if (not !progressed) || not sync then begin
          if !disturbed then begin
            next_time := max_int;
            idle := true;
            next_real := max_int;
            for i = 0 to ncpus - 1 do
              note cpus.(i)
            done
          end;
          if quiet () then
            skip_to (if !next_real = max_int then !now + 1 else !next_real)
          else if (not !progressed) || (!idle && head_quiet ()) then
            now := if !next_time = max_int then !now + 1 else !next_time
        end
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
  if Obs.Sink.enabled obs then
    Obs.Sink.emit obs
      (Obs.Event.Tls_work
         { passes = ms.m_passes; steps = ms.m_steps; run_ahead = ms.m_run_ahead });
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
