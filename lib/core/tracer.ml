type config = {
  banks : int;
  heap_fifo_lines : int;
  ld_dedup_entries : int;
  st_dedup_entries : int;
  local_slots : int;
  ld_limit : int;
  st_limit : int;
  line_words : int;
  max_entries_per_stl : int option;
  release_overflowing : (int * float) option;
}

let config_of ?base (hw : Hydra.Config.t) =
  (* the two policy fields come from [base]; the paper's policy is no
     entry cap and bank release for STLs that overflow on >= 90% of
     threads after 4 entries *)
  let max_entries_per_stl, release_overflowing =
    match base with
    | Some b -> (b.max_entries_per_stl, b.release_overflowing)
    | None -> (None, Some (4, 0.9))
  in
  {
    banks = hw.Hydra.Config.comparator_banks;
    heap_fifo_lines = hw.Hydra.Config.heap_ts_fifo_lines;
    (* the load-dedup table models the load buffer's tag array, the
       store-dedup table the cache-line timestamp slots *)
    ld_dedup_entries = hw.Hydra.Config.load_buffer_lines;
    st_dedup_entries = hw.Hydra.Config.cacheline_ts_lines;
    local_slots = hw.Hydra.Config.local_ts_slots;
    ld_limit = hw.Hydra.Config.load_buffer_lines;
    st_limit = hw.Hydra.Config.store_buffer_lines;
    line_words = hw.Hydra.Config.line_words;
    max_entries_per_stl;
    release_overflowing;
  }

let default_config = config_of Hydra.Config.default

(* The limits reach the rest of the tracer's state through one decision
   only (the release test in [on_sloop]), so configs equal up to them
   can share a run. *)
let fusion_key c = { c with ld_limit = 0; st_limit = 0 }

(* The per-event hot path (heap/local load/store, eoi) is written to be
   allocation-free in steady state — see ARCHITECTURE.md "Tracer hot
   path". The activation stack and the active-bank set are flat arrays
   updated incrementally at sloop/eloop (loop boundaries may allocate;
   per-event code must not): no list rebuilds, no closures, no option
   or tuple traffic per event. *)

exception Bad_operand of string

(* An event operand outside what the TEST hardware can index: the
   simulator never emits one, so a stream that carries one is corrupt.
   The message names the operand. *)
let bad_operand fmt =
  Printf.ksprintf (fun msg -> raise (Bad_operand ("Tracer: " ^ msg))) fmt

(* A negative address has no line: OCaml [/] and [mod] round toward
   zero, giving a negative word/line index and a read outside the
   dedup and line arrays, and a shift gives a huge one. *)
let[@inline never] negative_addr addr =
  bad_operand "negative heap address %d" addr

(* One STL's statistics, and its overflowing-thread count per limit
   pair ([ovf.(0)] mirrors [st.overflow_threads]). *)
type stl_entry = { st : Stats.t; ovf : int array }

type t = {
  config : config; (* pair 0's; its limits are [ld_limits.(0)], [st_limits.(0)] *)
  obs : Obs.Sink.t;
  (* the (load, store) line-limit pairs this run serves, and which of
     them a diverging release decision has sent away from it *)
  ld_limits : int array;
  st_limits : int array;
  departed : bool array;
  mutable banks_in_use : int;
  mutable local_reserved : int;
  (* activation stack as parallel arrays, [depth] entries live;
     act_bank.(d) is the index of the activation's bank in [abanks],
     or -1 when the activation went untraced *)
  mutable act_stl : int array;
  mutable act_entry : int array;
  mutable act_parent : int array; (* -1 = top level *)
  mutable act_nlocals : int array;
  mutable act_bank : int array;
  mutable depth : int;
  (* the active comparator banks, innermost at [n_abanks - 1] —
     maintained incrementally instead of filtering the activation
     stack on every load/store *)
  mutable abanks : Bank.t array;
  mutable n_abanks : int;
  dummy_bank : Bank.t; (* filler for unoccupied [abanks] slots *)
  (* bank free-list: [config.banks] preallocated records recycled
     through {!Bank.reuse}, so sloop/eloop never allocates a bank.
     Invariant: bank_free_sp = config.banks - banks_in_use *)
  bank_pool : Bank.t array;
  mutable bank_free_sp : int;
  (* heap store-timestamp history: line -> index of a pooled row of
     [line_words] per-word timestamps; rows are recycled through a
     free-list so eviction never reallocates *)
  heap_ts : Util.Timestamp_cache.t;
  heap_pool : int array; (* heap_fifo_lines * line_words, -1 = no store *)
  heap_free : int array;
  mutable heap_free_sp : int;
  (* direct-mapped dedup tables as paired unboxed arrays (tag = -1
     empty) instead of boxed (tag, ts) tuples rewritten per event *)
  ld_tags : int array;
  ld_tss : int array;
  st_tags : int array;
  st_tss : int array;
  (* log2 of [line_words], [ld_dedup_entries] and [st_dedup_entries],
     or -1 for one that is not a power of two — see [quot] *)
  lw_shift : int;
  ld_shift : int;
  st_shift : int;
  mutable ld_conflicts : int; (* live tag replaced by a different one *)
  mutable st_conflicts : int;
  local_ts : Util.Timestamp_cache.t;
  stats_tbl : (int, stl_entry) Hashtbl.t;
  (* (parent, child) packed into one int key — see [child_key] — so the
     per-eloop accumulation allocates neither a tuple key nor an option *)
  child_tbl : (int, int) Hashtbl.t;
  mutable max_depth : int;
  mutable untraced : int;
  mutable events_seen : int; (* sink callbacks consumed, incl. ignored ones *)
}

let pow2_shift n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n > 0 && n land (n - 1) = 0 then go 0 else -1

let create_fused ?(obs = Obs.Sink.null) configs =
  let config =
    match configs with
    | [] -> invalid_arg "Tracer.create_fused: no configs"
    | c :: rest ->
        if List.exists (fun c' -> fusion_key c' <> fusion_key c) rest then
          invalid_arg
            "Tracer.create_fused: configs differ beyond ld_limit/st_limit";
        c
  in
  let ld_limits = Array.of_list (List.map (fun c -> c.ld_limit) configs) in
  let st_limits = Array.of_list (List.map (fun c -> c.st_limit) configs) in
  let new_bank () = Bank.create ~ld_limits ~st_limits () in
  let heap_free = Array.init config.heap_fifo_lines (fun i -> i) in
  {
    config;
    obs;
    ld_limits;
    st_limits;
    departed = Array.make (List.length configs) false;
    banks_in_use = 0;
    local_reserved = 0;
    act_stl = Array.make 16 0;
    act_entry = Array.make 16 0;
    act_parent = Array.make 16 (-1);
    act_nlocals = Array.make 16 0;
    act_bank = Array.make 16 (-1);
    depth = 0;
    abanks = Array.make 16 (new_bank ());
    n_abanks = 0;
    dummy_bank = new_bank ();
    bank_pool = Array.init config.banks (fun _ -> new_bank ());
    bank_free_sp = config.banks;
    heap_ts = Util.Timestamp_cache.create ~capacity:config.heap_fifo_lines;
    heap_pool = Array.make (config.heap_fifo_lines * config.line_words) (-1);
    heap_free;
    heap_free_sp = config.heap_fifo_lines;
    ld_tags = Array.make config.ld_dedup_entries (-1);
    ld_tss = Array.make config.ld_dedup_entries 0;
    st_tags = Array.make config.st_dedup_entries (-1);
    st_tss = Array.make config.st_dedup_entries 0;
    lw_shift = pow2_shift config.line_words;
    ld_shift = pow2_shift config.ld_dedup_entries;
    st_shift = pow2_shift config.st_dedup_entries;
    ld_conflicts = 0;
    st_conflicts = 0;
    local_ts = Util.Timestamp_cache.create ~capacity:config.local_slots;
    stats_tbl = Hashtbl.create 32;
    child_tbl = Hashtbl.create 32;
    max_depth = 0;
    untraced = 0;
    events_seen = 0;
  }

let create ?(config = default_config) ?obs () = create_fused ?obs [ config ]

let get_entry t stl =
  (* [Hashtbl.find] + Not_found rather than [find_opt]: the hit path
     runs per eoi and must not allocate an option *)
  match Hashtbl.find t.stats_tbl stl with
  | e -> e
  | exception Not_found ->
      let e =
        { st = Stats.create stl; ovf = Array.make (Array.length t.departed) 0 }
      in
      Hashtbl.replace t.stats_tbl stl e;
      e

(* ------------------------------------------------------------------ *)
(* Event handlers *)

let grow a fill =
  let n = Array.length a in
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let ensure_act_room t =
  if t.depth = Array.length t.act_stl then begin
    t.act_stl <- grow t.act_stl 0;
    t.act_entry <- grow t.act_entry 0;
    t.act_parent <- grow t.act_parent (-1);
    t.act_nlocals <- grow t.act_nlocals 0;
    t.act_bank <- grow t.act_bank (-1)
  end

let[@inline] pair_released e k freq =
  Stats.overflow_freq_of e.st ~overflow_threads:e.ovf.(k) >= freq

(* The release test of every pair still in this run, each over its own
   overflow count; pair 0's answer is the run's, and a pair whose answer
   differs departs. *)
let release_verdict t e freq =
  let r0 = pair_released e 0 freq in
  for k = 1 to Array.length t.departed - 1 do
    if (not t.departed.(k)) && pair_released e k freq <> r0 then
      t.departed.(k) <- true
  done;
  r0

let on_sloop t ~stl ~nlocals ~frame:_ ~now =
  let e = get_entry t stl in
  let s = e.st in
  s.Stats.entries <- s.Stats.entries + 1;
  let capped =
    match t.config.max_entries_per_stl with
    | Some cap -> s.Stats.entries > cap
    | None -> false
  in
  (* Paper Sec. 5.2: "when a comparator bank consistently predicts
     speculative buffer overflows for an outer STL, it can be freed to be
     used deeper in a loop nest" — once enough entries show a high
     overflow frequency, stop spending a bank on this STL. *)
  let released =
    match t.config.release_overflowing with
    | Some (min_entries, freq) ->
        s.Stats.entries > min_entries
        && s.Stats.threads > 0
        && release_verdict t e freq
    | None -> false
  in
  if released && Obs.Sink.enabled t.obs then
    Obs.Sink.emit t.obs
      (Obs.Event.Bank_release { stl; now; overflow_freq = Stats.overflow_freq s });
  let capped = capped || released in
  let bank_idx =
    if
      (not capped)
      && t.banks_in_use < t.config.banks
      && t.local_reserved + nlocals <= t.config.local_slots
    then begin
      t.banks_in_use <- t.banks_in_use + 1;
      t.local_reserved <- t.local_reserved + nlocals;
      if Obs.Sink.enabled t.obs then
        Obs.Sink.emit t.obs (Obs.Event.Bank_alloc { stl; now });
      if t.n_abanks = Array.length t.abanks then
        t.abanks <- grow t.abanks t.dummy_bank;
      (* banks_in_use < config.banks (checked above) so the free-list is
         never empty here *)
      t.bank_free_sp <- t.bank_free_sp - 1;
      let b = t.bank_pool.(t.bank_free_sp) in
      Bank.reuse b ~obs:t.obs ~stats:s ~pair_overflow:e.ovf ~stl ~now;
      t.abanks.(t.n_abanks) <- b;
      t.n_abanks <- t.n_abanks + 1;
      t.n_abanks - 1
    end
    else begin
      t.untraced <- t.untraced + 1;
      if Obs.Sink.enabled t.obs then
        Obs.Sink.emit t.obs (Obs.Event.Bank_starved { stl; now });
      -1
    end
  in
  ensure_act_room t;
  let d = t.depth in
  t.act_stl.(d) <- stl;
  t.act_entry.(d) <- now;
  t.act_parent.(d) <- (if d = 0 then -1 else t.act_stl.(d - 1));
  t.act_nlocals.(d) <- nlocals;
  t.act_bank.(d) <- bank_idx;
  t.depth <- d + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth

(* Innermost active bank for [stl], or -1. Top-level recursion (not a
   closure, not a ref) so the per-iteration eoi path allocates
   nothing. *)
let rec bank_index_for abanks stl i =
  if i < 0 then -1
  else if (abanks.(i) : Bank.t).Bank.stl = stl then i
  else bank_index_for abanks stl (i - 1)

let rec act_index_for act_stl stl i =
  if i < 0 then -1
  else if act_stl.(i) = stl then i
  else act_index_for act_stl stl (i - 1)

let on_eoi t ~stl ~now =
  let bi = bank_index_for t.abanks stl (t.n_abanks - 1) in
  if bi >= 0 then Bank.end_thread t.abanks.(bi) ~now
  else if act_index_for t.act_stl stl (t.depth - 1) >= 0 then begin
    (* no bank: still count the thread for the cycle accounting *)
    let s = (get_entry t stl).st in
    s.Stats.threads <- s.Stats.threads + 1
  end

(* (parent, child) STL pair packed into one int. Parent -1 (top level)
   shifts to 0; ids at or beyond the bound are rejected rather than
   silently aliased (same policy as [local_slot_bound] below). *)
let stl_id_bound = 1 lsl 20

let child_key ~parent ~child =
  if child < 0 || child >= stl_id_bound || parent < -1 || parent >= stl_id_bound
  then
    bad_operand "STL pair (%d, %d) outside [-1, %d)" parent child stl_id_bound;
  ((parent + 1) * stl_id_bound) + child

let rec on_eloop t ~stl ~now =
  if t.depth > 0 then begin
    (* unbalanced stacks are handled defensively: keep popping until we
       close the right STL (returns out of loops are compiled with
       explicit eloops, so this should not happen) *)
    t.depth <- t.depth - 1;
    let d = t.depth in
    let a_stl = t.act_stl.(d) in
    let s = (get_entry t a_stl).st in
    let dur = now - t.act_entry.(d) in
    s.Stats.cycles <- s.Stats.cycles + dur;
    let key = child_key ~parent:t.act_parent.(d) ~child:a_stl in
    (* find + Not_found, and replace of an existing int binding mutates
       the bucket in place: no option, tuple, or box per eloop *)
    let prev =
      match Hashtbl.find t.child_tbl key with
      | v -> v
      | exception Not_found -> 0
    in
    Hashtbl.replace t.child_tbl key (dur + prev);
    let bi = t.act_bank.(d) in
    if bi >= 0 then begin
      let b = t.abanks.(bi) in
      Bank.merge_into b ~now;
      t.abanks.(bi) <- t.dummy_bank;
      (* return the bank record to the free-list for the next sloop *)
      t.bank_pool.(t.bank_free_sp) <- b;
      t.bank_free_sp <- t.bank_free_sp + 1;
      t.n_abanks <- bi;
      t.banks_in_use <- t.banks_in_use - 1;
      t.local_reserved <- t.local_reserved - t.act_nlocals.(d)
    end;
    if a_stl <> stl then on_eloop t ~stl ~now
  end

let on_read_stats _t ~stl:_ ~now:_ = ()

(* -- heap events -- *)

(* [x / d] and [x mod d] for [x >= 0], by a shift and a mask when
   [shift = log2 d] — the default machine and every power-of-two
   geometry, which the hardware indexes by address bits — and by
   division otherwise. *)
let[@inline] quot ~shift ~d x = if shift >= 0 then x lsr shift else x / d
let[@inline] rem ~shift ~d x = if shift >= 0 then x land (d - 1) else x mod d

let thread_elapsed (b : Bank.t) ~now = now - b.Bank.start_t

(* Record a classified arc (an unboxed {!Bank.arc_prev} /
   {!Bank.arc_earlier} code) in the per-PC profile and report it to the
   observability sink (guarded so the disabled path allocates nothing).
   Out of line: most loads find a same-thread store or none. *)
let[@inline never] note_arc t (b : Bank.t) ~pc ~store_ts ~now code =
  let len = now - store_ts in
  if Obs.Sink.enabled t.obs then
    Obs.Sink.emit t.obs
      (Obs.Event.Arc_found
         {
           stl = b.Bank.stl;
           bin =
             (if code = Bank.arc_prev then Obs.Event.Prev
              else Obs.Event.Earlier);
           len;
           pc;
         });
  Stats.record_pc_hit b.Bank.stats ~pc ~len ~thread_size:(thread_elapsed b ~now)

(* The dependency analysis of one load whose word was last stored at
   [store_ts], in every active bank, innermost first. *)
let[@inline] note_load_deps t ~pc ~store_ts ~now =
  for i = t.n_abanks - 1 downto 0 do
    let b = Array.unsafe_get t.abanks i in
    let code = Bank.note_load_dep_code b ~store_ts ~now in
    if code <> Bank.arc_none then note_arc t b ~pc ~store_ts ~now code
  done

let[@inline] on_heap_load t ~addr ~pc ~now =
  if addr < 0 then negative_addr addr;
  let lw = t.config.line_words in
  let line = quot ~shift:t.lw_shift ~d:lw addr in
  let pool_idx = Util.Timestamp_cache.get t.heap_ts line in
  (* dependency analysis; -1 = no recorded store for that word *)
  if pool_idx >= 0 then begin
    let store_ts =
      t.heap_pool.((pool_idx * lw) + rem ~shift:t.lw_shift ~d:lw addr)
    in
    if store_ts >= 0 then note_load_deps t ~pc ~store_ts ~now
  end;
  (* overflow analysis: load-line dedup *)
  let d = t.config.ld_dedup_entries in
  let idx = rem ~shift:t.ld_shift ~d line in
  let tag = quot ~shift:t.ld_shift ~d line in
  let old_tag = t.ld_tags.(idx) and old_ts = t.ld_tss.(idx) in
  for i = t.n_abanks - 1 downto 0 do
    let b = Array.unsafe_get t.abanks i in
    let in_current = old_tag = tag && old_ts >= b.Bank.start_t in
    Bank.note_load_line b ~in_current_thread:in_current ~now
  done;
  if old_tag >= 0 && old_tag <> tag then t.ld_conflicts <- t.ld_conflicts + 1;
  t.ld_tags.(idx) <- tag;
  t.ld_tss.(idx) <- now

let[@inline] on_heap_store t ~addr ~now =
  if addr < 0 then negative_addr addr;
  let lw = t.config.line_words in
  let line = quot ~shift:t.lw_shift ~d:lw addr
  and word = rem ~shift:t.lw_shift ~d:lw addr in
  (* record the word store timestamp in the pooled FIFO history *)
  let pool_idx = Util.Timestamp_cache.get t.heap_ts line in
  if pool_idx >= 0 then begin
    t.heap_pool.((pool_idx * lw) + word) <- now;
    (* refresh FIFO position *)
    Util.Timestamp_cache.set t.heap_ts line pool_idx
  end
  else begin
    (* recycle a pooled row: from the free-list, or by evicting the
       oldest line (free-list empty <=> cache full, so the eviction
       always yields a row) *)
    let idx =
      if t.heap_free_sp = 0 then Util.Timestamp_cache.evict_oldest t.heap_ts
      else begin
        t.heap_free_sp <- t.heap_free_sp - 1;
        t.heap_free.(t.heap_free_sp)
      end
    in
    let base = idx * lw in
    Array.fill t.heap_pool base lw (-1);
    t.heap_pool.(base + word) <- now;
    Util.Timestamp_cache.set t.heap_ts line idx
  end;
  (* overflow analysis: store-line dedup *)
  let d = t.config.st_dedup_entries in
  let idx = rem ~shift:t.st_shift ~d line in
  let tag = quot ~shift:t.st_shift ~d line in
  let old_tag = t.st_tags.(idx) and old_ts = t.st_tss.(idx) in
  for i = t.n_abanks - 1 downto 0 do
    let b = Array.unsafe_get t.abanks i in
    let in_current = old_tag = tag && old_ts >= b.Bank.start_t in
    Bank.note_store_line b ~in_current_thread:in_current ~now
  done;
  if old_tag >= 0 && old_tag <> tag then t.st_conflicts <- t.st_conflicts + 1;
  t.st_tags.(idx) <- tag;
  t.st_tss.(idx) <- now

(* -- local variable events -- *)

(* Local-variable timestamps are keyed on (frame, slot) packed into one
   int. A multiplier no larger than a frame's real slot count aliases
   distinct locals across frames (slot 1024 of frame f collides with
   slot 0 of frame f+1 under the old [frame * 1024] packing) and
   fabricates phantom RAW arcs; [local_slot_bound] is far above any
   real frame size, and slots beyond it are rejected rather than
   silently folded. Frames are bounded so that the packed key stays a
   non-negative int. *)
let local_slot_bound = 1 lsl 20
let max_frame = max_int / local_slot_bound

let local_key ~frame ~slot =
  if slot < 0 || slot >= local_slot_bound then
    bad_operand "local slot %d outside [0, %d)" slot local_slot_bound;
  if frame < 0 || frame > max_frame then
    bad_operand "frame %d outside [0, %d]" frame max_frame;
  (frame * local_slot_bound) + slot

let on_local_load t ~frame ~slot ~pc ~now =
  let sts = Util.Timestamp_cache.get t.local_ts (local_key ~frame ~slot) in
  if sts >= 0 then note_load_deps t ~pc ~store_ts:sts ~now

let on_local_store t ~frame ~slot ~now =
  let key = local_key ~frame ~slot in
  if now < 0 then bad_operand "negative local store timestamp %d" now;
  Util.Timestamp_cache.set t.local_ts key now

(* ------------------------------------------------------------------ *)

let sink t : Hydra.Trace.sink =
  (* the event tap: one int increment per callback keeps the per-event
     path allocation-free while letting capture/replay plumbing assert
     stream-length agreement *)
  {
    Hydra.Trace.on_sloop =
      (fun ~stl ~nlocals ~frame ~now ->
        t.events_seen <- t.events_seen + 1;
        on_sloop t ~stl ~nlocals ~frame ~now);
    on_eoi =
      (fun ~stl ~now ->
        t.events_seen <- t.events_seen + 1;
        on_eoi t ~stl ~now);
    on_eloop =
      (fun ~stl ~now ->
        t.events_seen <- t.events_seen + 1;
        on_eloop t ~stl ~now);
    on_read_stats =
      (fun ~stl ~now ->
        t.events_seen <- t.events_seen + 1;
        on_read_stats t ~stl ~now);
    on_heap_load =
      (fun ~addr ~pc ~now ->
        t.events_seen <- t.events_seen + 1;
        on_heap_load t ~addr ~pc ~now);
    on_heap_store =
      (fun ~addr ~now ->
        t.events_seen <- t.events_seen + 1;
        on_heap_store t ~addr ~now);
    on_local_load =
      (fun ~frame ~slot ~pc ~now ->
        t.events_seen <- t.events_seen + 1;
        on_local_load t ~frame ~slot ~pc ~now);
    on_local_store =
      (fun ~frame ~slot ~now ->
        t.events_seen <- t.events_seen + 1;
        on_local_store t ~frame ~slot ~now);
    on_call = (fun ~callee:_ ~now:_ -> t.events_seen <- t.events_seen + 1);
    on_return = (fun ~now:_ -> t.events_seen <- t.events_seen + 1);
  }

let pairs t = Array.length t.departed

let departed t =
  List.filter (fun k -> t.departed.(k)) (List.init (pairs t) Fun.id)

let check_pair t pair =
  if pair < 0 || pair >= pairs t then
    invalid_arg (Printf.sprintf "Tracer: no limit pair %d" pair);
  if t.departed.(pair) then
    invalid_arg
      (Printf.sprintf "Tracer: limit pair %d departed at a release split" pair)

(* Pair [pair]'s view of one STL: pair 0's is the shared record itself,
   any other a copy carrying that pair's overflow count. *)
let view e ~pair =
  if pair = 0 then e.st else { e.st with Stats.overflow_threads = e.ovf.(pair) }

let stats ?(pair = 0) t =
  check_pair t pair;
  Hashtbl.fold (fun k e acc -> (k, view e ~pair) :: acc) t.stats_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find_stats ?(pair = 0) t stl =
  check_pair t pair;
  Option.map (view ~pair) (Hashtbl.find_opt t.stats_tbl stl)

let child_cycles t =
  Hashtbl.fold
    (fun k v acc -> (((k / stl_id_bound) - 1, k mod stl_id_bound), v) :: acc)
    t.child_tbl []
  |> List.sort compare

let max_dynamic_depth t = t.max_depth
let untraced_activations t = t.untraced
let events_consumed t = t.events_seen

(* -- cache-health counters (exported as tracer.* obs gauges) -- *)

let heap_fifo_evictions t = Util.Timestamp_cache.evictions t.heap_ts
let local_ts_evictions t = Util.Timestamp_cache.evictions t.local_ts
let ld_dedup_conflicts t = t.ld_conflicts
let st_dedup_conflicts t = t.st_conflicts
