(** One TEST comparator bank (paper Fig. 7).

    A bank tracks the progress of one active STL: the loop-entry
    timestamp, the current and previous thread-start timestamps, the
    per-thread shortest ("critical") dependency arc in each of the two
    bins (to thread t-1, to threads < t-1), and the per-thread counts of
    newly-touched speculative load / store lines for the overflow
    analysis. At each end-of-iteration the per-thread values are
    accumulated into counters; at loop exit the counters are merged into
    the per-STL {!Stats.t}, with one overflow count per limit pair. *)

type t = {
  (* identity fields are mutable so an eloop'd bank can be recycled for
     the next activation ({!reuse}) instead of allocating a record per
     sloop *)
  mutable stl : int;
  mutable stats : Stats.t;
  mutable pair_overflow : int array;
  mutable obs : Obs.Sink.t;
  mutable obs_on : bool;       (** [Obs.Sink.enabled obs], read per event *)
  mutable entry_time : int;
  mutable start_t : int;       (** current thread start timestamp *)
  mutable start_tm1 : int;     (** previous thread start timestamp *)
  (* per-current-thread state *)
  mutable cur_min_prev : int;      (** [max_int] = no arc this thread *)
  mutable cur_min_earlier : int;
  mutable ld_lines : int;
  mutable st_lines : int;
  mutable overflowed : bool;
  (* accumulators since loop entry *)
  mutable threads : int;
  mutable acc_prev_count : int;
  mutable acc_prev_len : int;
  mutable acc_earlier_count : int;
  mutable acc_earlier_len : int;
  acc_overflow : int array;
  mutable max_ld : int;
  mutable max_st : int;
  ld_limits : int array;
  st_limits : int array;
}

let create ~ld_limits ~st_limits () =
  let pairs = Array.length ld_limits in
  if pairs = 0 || Array.length st_limits <> pairs then
    invalid_arg "Bank.create: limit vectors must be non-empty and equal length";
  {
    stl = -1;
    stats = Stats.create (-1);
    pair_overflow = Array.make pairs 0;
    obs = Obs.Sink.null;
    obs_on = false;
    entry_time = 0;
    start_t = 0;
    start_tm1 = 0;
    cur_min_prev = max_int;
    cur_min_earlier = max_int;
    ld_lines = 0;
    st_lines = 0;
    overflowed = false;
    threads = 0;
    acc_prev_count = 0;
    acc_prev_len = 0;
    acc_earlier_count = 0;
    acc_earlier_len = 0;
    acc_overflow = Array.make pairs 0;
    max_ld = 0;
    max_st = 0;
    ld_limits;
    st_limits;
  }

(* Arm a pooled bank for a new activation, writing into the existing
   record so the sloop/eloop boundary allocates nothing in steady
   state. *)
let reuse t ~obs ~stats ~pair_overflow ~stl ~now =
  t.stl <- stl;
  t.stats <- stats;
  t.pair_overflow <- pair_overflow;
  t.obs <- obs;
  t.obs_on <- Obs.Sink.enabled obs;
  t.entry_time <- now;
  t.start_t <- now;
  t.start_tm1 <- now;
  t.cur_min_prev <- max_int;
  t.cur_min_earlier <- max_int;
  t.ld_lines <- 0;
  t.st_lines <- 0;
  t.overflowed <- false;
  t.threads <- 0;
  t.acc_prev_count <- 0;
  t.acc_prev_len <- 0;
  t.acc_earlier_count <- 0;
  t.acc_earlier_len <- 0;
  Array.fill t.acc_overflow 0 (Array.length t.acc_overflow) 0;
  t.max_ld <- 0;
  t.max_st <- 0

let arc_none = 0
let arc_prev = 1
let arc_earlier = 2

(** Dependency-arc identification (paper Sec. 4.2.1) as an unboxed int
    code, with per-thread critical (shortest) arc tracking: compare a
    retrieved store timestamp against the thread-start timestamps.
    Stores from before the loop entry are inputs, not inter-thread
    dependencies. The arc length for any classified arc is
    [now - store_ts]; the code carries no payload, so the tracer's
    per-event path allocates nothing. Inlined into the tracer's load
    paths, where a same-thread store, the common case, costs one
    compare. *)
let[@inline] note_load_dep_code t ~store_ts ~now =
  if store_ts >= t.start_t then arc_none (* same thread *)
  else if store_ts >= t.start_tm1 && t.start_tm1 < t.start_t then begin
    let len = now - store_ts in
    if len < t.cur_min_prev then t.cur_min_prev <- len;
    arc_prev
  end
  else if store_ts >= t.entry_time && t.start_t > t.entry_time then begin
    let len = now - store_ts in
    if len < t.cur_min_earlier then t.cur_min_earlier <- len;
    arc_earlier
  end
  else arc_none

let over_limits t k =
  t.ld_lines > t.ld_limits.(k) || t.st_lines > t.st_limits.(k)

(* The first time the current thread's footprint crosses pair 0's
   limits, report it (with the footprint at the crossing) to the
   observability sink. Counting needs no per-event compare: see
   [end_thread]. *)
let[@inline never] note_overflow t ~now =
  if (not t.overflowed) && over_limits t 0 then begin
    Obs.Sink.emit t.obs
      (Obs.Event.Overflow
         { stl = t.stl; ld_lines = t.ld_lines; st_lines = t.st_lines; now });
    t.overflowed <- true
  end

(** Overflow analysis (paper Sec. 4.2.2): [in_current_thread] is column
    (e) of Fig. 4 — the line was last touched by the current thread. *)
let[@inline] note_load_line t ~in_current_thread ~now =
  if not in_current_thread then begin
    t.ld_lines <- t.ld_lines + 1;
    if t.obs_on then note_overflow t ~now
  end

let[@inline] note_store_line t ~in_current_thread ~now =
  if not in_current_thread then begin
    t.st_lines <- t.st_lines + 1;
    if t.obs_on then note_overflow t ~now
  end

(** Finalize the current thread: accumulate its critical arcs and, per
    limit pair, its overflow, then shift thread-start timestamps (the
    [eoi] operation of Table 4). The line counts only grow within a
    thread, so the thread crossed pair k's limits at some event exactly
    when its final counts exceed them. *)
let end_thread t ~now =
  t.threads <- t.threads + 1;
  if t.cur_min_prev < max_int then begin
    t.acc_prev_count <- t.acc_prev_count + 1;
    t.acc_prev_len <- t.acc_prev_len + t.cur_min_prev
  end;
  if t.cur_min_earlier < max_int then begin
    t.acc_earlier_count <- t.acc_earlier_count + 1;
    t.acc_earlier_len <- t.acc_earlier_len + t.cur_min_earlier
  end;
  for k = 0 to Array.length t.acc_overflow - 1 do
    if over_limits t k then t.acc_overflow.(k) <- t.acc_overflow.(k) + 1
  done;
  if t.ld_lines > t.max_ld then t.max_ld <- t.ld_lines;
  if t.st_lines > t.max_st then t.max_st <- t.st_lines;
  t.cur_min_prev <- max_int;
  t.cur_min_earlier <- max_int;
  t.ld_lines <- 0;
  t.st_lines <- 0;
  t.overflowed <- false;
  t.start_tm1 <- t.start_t;
  t.start_t <- now

(** Merge the bank's accumulators into the per-STL statistics at loop
    exit ([eloop]). The final (partial) thread is finalized first. *)
let merge_into t ~now =
  end_thread t ~now;
  let s = t.stats in
  s.Stats.threads <- s.Stats.threads + t.threads;
  s.Stats.traced_threads <- s.Stats.traced_threads + t.threads;
  s.Stats.traced_entries <- s.Stats.traced_entries + 1;
  s.Stats.crit_prev_count <- s.Stats.crit_prev_count + t.acc_prev_count;
  s.Stats.crit_prev_len <- s.Stats.crit_prev_len + t.acc_prev_len;
  s.Stats.crit_earlier_count <- s.Stats.crit_earlier_count + t.acc_earlier_count;
  s.Stats.crit_earlier_len <- s.Stats.crit_earlier_len + t.acc_earlier_len;
  for k = 0 to Array.length t.acc_overflow - 1 do
    t.pair_overflow.(k) <- t.pair_overflow.(k) + t.acc_overflow.(k)
  done;
  s.Stats.overflow_threads <- t.pair_overflow.(0);
  if t.max_ld > s.Stats.max_load_lines then s.Stats.max_load_lines <- t.max_ld;
  if t.max_st > s.Stats.max_store_lines then s.Stats.max_store_lines <- t.max_st
