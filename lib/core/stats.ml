(** Per-STL statistics accumulated by TEST (paper Figs. 3 & 4) and the
    derived values fed to the speedup estimate.

    Counter semantics follow Figure 3's table exactly:
    - [threads], [entries], [cycles] — raw activity counters;
    - critical arcs are binned {e to the previous thread} (t-1) and
      {e to earlier threads} (<t-1); per thread only the shortest arc in
      each bin is accumulated;
    - [overflow_threads] counts threads whose speculative read or write
      state would exceed the Table 1 buffer limits;
    - [pc_bins] is the extended implementation's per-load-PC dependency
      profile (paper Sec. 6.3). *)

type pc_bin = {
  mutable hits : int;
  mutable total_len : int;
  mutable min_len : int;
  mutable thread_size_sum : int;
      (** thread size at each hit, to compare arc length vs. thread size *)
}

(* PC -> bin, open-addressed with linear probing: [pcs] and [bins] are
   parallel arrays of a power-of-two slot count kept at most half full.
   A slot is empty when its bin has no hits — a recorded bin always has
   at least one — so the test survives [Marshal], which a physical
   sentinel would not. The per-arc lookup hashes the PC with one
   multiply instead of calling the polymorphic hash. Slots are
   allocated at the first arc: most STLs never record one. *)
type pc_bins = {
  mutable pcs : int array;
  mutable bins : pc_bin array;
  mutable count : int;
}

type t = {
  stl : int;
  mutable cycles : int;
  mutable threads : int;           (** all observed iterations *)
  mutable entries : int;           (** all observed loop entries *)
  mutable traced_threads : int;    (** iterations observed with a bank *)
  mutable traced_entries : int;    (** entries that got a comparator bank *)
  mutable crit_prev_count : int;
  mutable crit_prev_len : int;
  mutable crit_earlier_count : int;
  mutable crit_earlier_len : int;
  mutable overflow_threads : int;
  mutable max_load_lines : int;
  mutable max_store_lines : int;
  pc_bins : pc_bins;
}

let create stl =
  {
    stl;
    cycles = 0;
    threads = 0;
    entries = 0;
    traced_threads = 0;
    traced_entries = 0;
    crit_prev_count = 0;
    crit_prev_len = 0;
    crit_earlier_count = 0;
    crit_earlier_len = 0;
    overflow_threads = 0;
    max_load_lines = 0;
    max_store_lines = 0;
    pc_bins = { pcs = [||]; bins = [||]; count = 0 };
  }

let fresh_bin () =
  { hits = 0; total_len = 0; min_len = max_int; thread_size_sum = 0 }

(* The slot holding [pc], or the empty slot where it would go. *)
let[@inline] pc_slot tb pc =
  let pcs = tb.pcs and bins = tb.bins in
  let mask = Array.length pcs - 1 in
  let i = ref (((pc * 0x2545F4914F6CDD1D) lsr 32) land mask) in
  while
    (Array.unsafe_get bins !i).hits > 0 && Array.unsafe_get pcs !i <> pc
  do
    i := (!i + 1) land mask
  done;
  !i

(* Rehash into [slots] (a power of two) slots. *)
let resize tb slots =
  let pcs = tb.pcs and bins = tb.bins in
  let empty = fresh_bin () in
  tb.pcs <- Array.make slots 0;
  tb.bins <- Array.make slots empty;
  Array.iteri
    (fun j b ->
      if b.hits > 0 then begin
        let i = pc_slot tb pcs.(j) in
        tb.pcs.(i) <- pcs.(j);
        tb.bins.(i) <- b
      end)
    bins

(* A new, still hitless bin for [pc], which has none yet. *)
let add_bin tb pc =
  if 2 * (tb.count + 1) > Array.length tb.pcs then
    resize tb (max 8 (2 * Array.length tb.pcs));
  let i = pc_slot tb pc in
  let b = fresh_bin () in
  tb.pcs.(i) <- pc;
  tb.bins.(i) <- b;
  tb.count <- tb.count + 1;
  b

let record_pc_hit t ~pc ~len ~thread_size =
  let tb = t.pc_bins in
  let bin =
    if tb.count = 0 then add_bin tb pc
    else
      let b = Array.unsafe_get tb.bins (pc_slot tb pc) in
      if b.hits > 0 then b else add_bin tb pc
  in
  bin.hits <- bin.hits + 1;
  bin.total_len <- bin.total_len + len;
  if len < bin.min_len then bin.min_len <- len;
  bin.thread_size_sum <- bin.thread_size_sum + thread_size

let fold_pc_bins f t acc =
  let tb = t.pc_bins in
  let acc = ref acc in
  Array.iteri
    (fun i b -> if b.hits > 0 then acc := f tb.pcs.(i) b !acc)
    tb.bins;
  !acc

(* ---------------- Derived values (Figure 3, bottom table) ------------- *)

let avg_thread_size t =
  if t.threads = 0 then 0. else Float.of_int t.cycles /. Float.of_int t.threads

let avg_iters_per_entry t =
  if t.entries = 0 then 0. else Float.of_int t.threads /. Float.of_int t.entries

(* Critical-arc and overflow frequencies are measured only over the
   iterations a comparator bank actually observed; the (- entries) term
   is the paper's (threads - 1): the first thread of an activation has
   no previous thread. *)
let denom_threads t =
  if t.traced_threads > 0 then max 1 (t.traced_threads - t.traced_entries)
  else max 1 (t.threads - t.entries)

let crit_prev_freq t =
  Float.of_int t.crit_prev_count /. Float.of_int (denom_threads t)

let crit_earlier_freq t =
  Float.of_int t.crit_earlier_count /. Float.of_int (denom_threads t)

let avg_crit_prev_len t =
  if t.crit_prev_count = 0 then 0.
  else Float.of_int t.crit_prev_len /. Float.of_int t.crit_prev_count

let avg_crit_earlier_len t =
  if t.crit_earlier_count = 0 then 0.
  else Float.of_int t.crit_earlier_len /. Float.of_int t.crit_earlier_count

let[@inline] overflow_freq_of t ~overflow_threads =
  let denom = if t.traced_threads > 0 then t.traced_threads else t.threads in
  if denom = 0 then 0. else Float.of_int overflow_threads /. Float.of_int denom

let overflow_freq t = overflow_freq_of t ~overflow_threads:t.overflow_threads

let pp ppf t =
  Format.fprintf ppf
    "@[<v>STL %d: cycles=%d threads=%d entries=%d@,\
     crit(t-1): n=%d Σlen=%d  crit(<t-1): n=%d Σlen=%d@,\
     overflow threads=%d  max lines: ld=%d st=%d@,\
     avg thread size=%.1f  iters/entry=%.1f@]"
    t.stl t.cycles t.threads t.entries t.crit_prev_count t.crit_prev_len
    t.crit_earlier_count t.crit_earlier_len t.overflow_threads t.max_load_lines
    t.max_store_lines (avg_thread_size t) (avg_iters_per_entry t)
