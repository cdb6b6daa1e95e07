(* TEST tracer tests: the Figure 3 and Figure 4 worked examples, the
   finite-history and aliasing imprecisions, bank allocation, and the
   Figure 9 accuracy limitation. *)

module Tracer = Test_core.Tracer
module Stats = Test_core.Stats

let small_config =
  {
    Tracer.default_config with
    Tracer.ld_limit = 2;
    st_limit = 1;
    heap_fifo_lines = 4;
  }

(* ------------------------------------------------------------------ *)
(* Figure 3: the Huffman load-dependency worked example. Two heap
   variables (in_p at addr 100, out_p at addr 200); three threads; the
   paper's arc lengths 8 and 9 (thread 2) and 8 and 11 (thread 3). *)
let test_figure3 () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  let a = 100 and b = 200 in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  (* thread 1: stores only *)
  s.Hydra.Trace.on_heap_store ~addr:a ~now:8;
  s.Hydra.Trace.on_heap_store ~addr:b ~now:11;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:13;
  (* thread 2: arcs 8 (critical) and 9 *)
  s.Hydra.Trace.on_heap_load ~addr:a ~pc:1 ~now:16;
  s.Hydra.Trace.on_heap_store ~addr:a ~now:18;
  s.Hydra.Trace.on_heap_load ~addr:b ~pc:2 ~now:20;
  s.Hydra.Trace.on_heap_store ~addr:b ~now:21;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:24;
  (* thread 3: arcs 8 (critical) and 11 *)
  s.Hydra.Trace.on_heap_load ~addr:a ~pc:1 ~now:26;
  s.Hydra.Trace.on_heap_load ~addr:b ~pc:2 ~now:32;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:35;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "threads" 3 st.Stats.threads;
  Alcotest.(check int) "entries" 1 st.Stats.entries;
  Alcotest.(check int) "cycles" 35 st.Stats.cycles;
  Alcotest.(check int) "critical arcs to t-1" 2 st.Stats.crit_prev_count;
  Alcotest.(check int) "accumulated lengths to t-1" 16 st.Stats.crit_prev_len;
  Alcotest.(check int) "critical arcs to <t-1" 0 st.Stats.crit_earlier_count;
  (* paper's derived values: avg thread size 11.6, freq 1.0, avg len 8 *)
  Alcotest.(check (float 0.1)) "avg thread size" 11.6 (Stats.avg_thread_size st);
  Alcotest.(check (float 1e-6)) "arc freq to t-1" 1.0 (Stats.crit_prev_freq st);
  Alcotest.(check (float 1e-6)) "avg arc len" 8.0 (Stats.avg_crit_prev_len st);
  Alcotest.(check (float 1e-6)) "iters per entry" 3.0 (Stats.avg_iters_per_entry st)

(* An arc to a thread before the previous one lands in the <t-1 bin. *)
let test_earlier_bin () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_heap_store ~addr:100 ~now:5;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:20;
  (* thread 3 loads a value stored by thread 1 *)
  s.Hydra.Trace.on_heap_load ~addr:100 ~pc:9 ~now:25;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:30;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "no t-1 arcs" 0 st.Stats.crit_prev_count;
  Alcotest.(check int) "one <t-1 arc" 1 st.Stats.crit_earlier_count;
  Alcotest.(check int) "arc length 20" 20 st.Stats.crit_earlier_len

(* Stores from before the loop entry are inputs, not dependencies. *)
let test_preloop_store_no_arc () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_heap_store ~addr:100 ~now:2;
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:5;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_heap_load ~addr:100 ~pc:3 ~now:12;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:15;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "no arcs" 0
    (st.Stats.crit_prev_count + st.Stats.crit_earlier_count)

(* Intra-thread store→load is not an inter-thread arc. *)
let test_same_thread_no_arc () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_heap_store ~addr:64 ~now:12;
  s.Hydra.Trace.on_heap_load ~addr:64 ~pc:3 ~now:14;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:20;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "no arcs" 0
    (st.Stats.crit_prev_count + st.Stats.crit_earlier_count)

(* ------------------------------------------------------------------ *)
(* Figure 4: speculative state overflow analysis. With ld_limit = 2 and
   st_limit = 1, a thread touching 3 load lines or 2 store lines
   overflows; per-line dedup within a thread must not double-count. *)
let test_figure4_overflow () =
  let t = Tracer.create ~config:small_config () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  (* thread 1: 2 distinct load lines (words 0,4 share line 0), 1 store
     line -> no overflow *)
  s.Hydra.Trace.on_heap_load ~addr:0 ~pc:1 ~now:1;
  s.Hydra.Trace.on_heap_load ~addr:4 ~pc:1 ~now:2;
  s.Hydra.Trace.on_heap_load ~addr:64 ~pc:1 ~now:3;
  s.Hydra.Trace.on_heap_store ~addr:128 ~now:4;
  s.Hydra.Trace.on_heap_store ~addr:132 ~now:5;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  (* thread 2: 3 distinct load lines -> overflow *)
  s.Hydra.Trace.on_heap_load ~addr:0 ~pc:1 ~now:11;
  s.Hydra.Trace.on_heap_load ~addr:64 ~pc:1 ~now:12;
  s.Hydra.Trace.on_heap_load ~addr:256 ~pc:1 ~now:13;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:20;
  (* thread 3: 2 distinct store lines -> overflow (st_limit = 1) *)
  s.Hydra.Trace.on_heap_store ~addr:0 ~now:21;
  s.Hydra.Trace.on_heap_store ~addr:300 ~now:22;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:30;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "threads" 3 st.Stats.threads;
  Alcotest.(check int) "overflowing threads" 2 st.Stats.overflow_threads;
  Alcotest.(check int) "max load lines" 3 st.Stats.max_load_lines;
  Alcotest.(check int) "max store lines" 2 st.Stats.max_store_lines;
  Alcotest.(check (float 1e-6)) "overflow freq" (2. /. 3.) (Stats.overflow_freq st)

(* The 64-entry direct-mapped store dedup aliases: two lines 64 apart
   share an entry, so re-touching the first line recounts it — the
   associativity error the paper acknowledges (Sec. 5.3). *)
let test_store_dedup_aliasing () =
  let t = Tracer.create ~config:{ small_config with Tracer.st_limit = 64 } () in
  let s = Tracer.sink t in
  let line_bytes = Hydra.Config.default.line_words in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_heap_store ~addr:0 ~now:1;
  (* line 64 maps to the same dedup entry as line 0 *)
  s.Hydra.Trace.on_heap_store ~addr:(64 * line_bytes) ~now:2;
  s.Hydra.Trace.on_heap_store ~addr:0 ~now:3;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:10;
  let st = Option.get (Tracer.find_stats t 0) in
  (* 2 distinct lines, but the conflict recounts line 0: 3 *)
  Alcotest.(check int) "aliased store count" 3 st.Stats.max_store_lines

(* Finite store-timestamp history: after the FIFO wraps, old stores are
   forgotten and distant dependencies are missed (Sec. 6.2). *)
let test_history_loss () =
  let t = Tracer.create ~config:small_config () in
  (* heap_fifo_lines = 4 *)
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_heap_store ~addr:0 ~now:1;
  (* stores to 4 other lines evict line 0's timestamps *)
  for i = 1 to 4 do
    s.Hydra.Trace.on_heap_store ~addr:(i * 8 * 4) ~now:(1 + i)
  done;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_heap_load ~addr:0 ~pc:1 ~now:12;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:20;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "dependency lost to eviction" 0
    (st.Stats.crit_prev_count + st.Stats.crit_earlier_count)

(* ------------------------------------------------------------------ *)
(* Local-variable dependencies via lwl/swl annotations. *)
let test_local_dependency () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:1 ~frame:7 ~now:0;
  s.Hydra.Trace.on_local_store ~frame:7 ~slot:2 ~now:6;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_local_load ~frame:7 ~slot:2 ~pc:5 ~now:13;
  (* a different frame's same slot is a different variable *)
  s.Hydra.Trace.on_local_load ~frame:8 ~slot:2 ~pc:5 ~now:14;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:20;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "one local arc" 1 st.Stats.crit_prev_count;
  Alcotest.(check int) "arc length 7" 7 st.Stats.crit_prev_len

(* Regression: the local-timestamp key used to be frame*1024+slot, so
   (frame, slot) pairs with slot >= 1024 aliased a *different* frame's
   slot — here (1, 1500) and (2, 476) both packed to 2524, and the load
   below fabricated a phantom RAW arc. The widened packing keeps the
   pairs distinct. *)
let test_local_key_no_frame_aliasing () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  (* store to (frame 1, slot 1500); load (frame 2, slot 476) — a
     DIFFERENT variable, but 2*1024 + 476 = 1*1024 + 1500, so the old
     packing aliased them and this loop reported a phantom arc *)
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:1 ~frame:1 ~now:0;
  s.Hydra.Trace.on_local_store ~frame:1 ~slot:1500 ~now:6;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_local_load ~frame:2 ~slot:476 ~pc:5 ~now:13;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:20;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "no phantom arc from frame/slot aliasing" 0
    (st.Stats.crit_prev_count + st.Stats.crit_earlier_count);
  (* a genuine dependency through a slot >= 1024 is still detected *)
  s.Hydra.Trace.on_sloop ~stl:1 ~nlocals:1 ~frame:1 ~now:25;
  s.Hydra.Trace.on_local_store ~frame:1 ~slot:1500 ~now:26;
  s.Hydra.Trace.on_eoi ~stl:1 ~now:30;
  s.Hydra.Trace.on_local_load ~frame:1 ~slot:1500 ~pc:6 ~now:33;
  s.Hydra.Trace.on_eloop ~stl:1 ~now:40;
  let st1 = Option.get (Tracer.find_stats t 1) in
  Alcotest.(check int) "genuine high-slot arc kept" 1
    st1.Stats.crit_prev_count;
  Alcotest.(check int) "arc length 7 (store at 26, load at 33)" 7
    st1.Stats.crit_prev_len

(* An absurd slot (beyond any real frame size) is rejected rather than
   silently folded into another frame's key space. *)
let test_local_slot_bound_rejected () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  Alcotest.check_raises "oversized slot"
    (Tracer.Bad_operand
       (Printf.sprintf "Tracer: local slot %d outside [0, %d)" (1 lsl 20)
          (1 lsl 20)))
    (fun () -> s.Hydra.Trace.on_local_store ~frame:1 ~slot:(1 lsl 20) ~now:1)

(* Negative heap addresses would turn into negative array indices via
   OCaml's truncating mod; the tracer must fail loudly instead. *)
let test_negative_address_rejected () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  Alcotest.check_raises "negative load address"
    (Tracer.Bad_operand "Tracer: negative heap address -4") (fun () ->
      s.Hydra.Trace.on_heap_load ~addr:(-4) ~pc:1 ~now:1);
  Alcotest.check_raises "negative store address"
    (Tracer.Bad_operand "Tracer: negative heap address -1") (fun () ->
      s.Hydra.Trace.on_heap_store ~addr:(-1) ~now:2);
  (* a benign address still works after the rejected ones *)
  s.Hydra.Trace.on_heap_store ~addr:8 ~now:3;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:5

(* Nested banks: a dependency is attributed to exactly one loop — the
   one for which it crosses iterations (paper Sec. 5.2). *)
let test_nested_exclusivity () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0 (* outer *);
  s.Hydra.Trace.on_sloop ~stl:1 ~nlocals:0 ~frame:1 ~now:2 (* inner *);
  s.Hydra.Trace.on_heap_store ~addr:40 ~now:4;
  s.Hydra.Trace.on_eoi ~stl:1 ~now:6;
  (* load in inner thread 2: arc for the inner loop only *)
  s.Hydra.Trace.on_heap_load ~addr:40 ~pc:3 ~now:8;
  s.Hydra.Trace.on_eloop ~stl:1 ~now:10;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:12;
  (* second outer iteration: a fresh inner activation *)
  s.Hydra.Trace.on_sloop ~stl:1 ~nlocals:0 ~frame:1 ~now:13;
  (* load of the value stored in outer thread 1: arc for the OUTER loop
     (for the new inner activation the store predates its entry) *)
  s.Hydra.Trace.on_heap_load ~addr:40 ~pc:4 ~now:15;
  s.Hydra.Trace.on_eloop ~stl:1 ~now:17;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:20;
  let inner = Option.get (Tracer.find_stats t 1) in
  let outer = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "inner arcs" 1 inner.Stats.crit_prev_count;
  Alcotest.(check int) "outer arcs" 1 outer.Stats.crit_prev_count;
  Alcotest.(check int) "inner entries" 2 inner.Stats.entries;
  Alcotest.(check int) "dynamic depth" 2 (Tracer.max_dynamic_depth t)

(* Bank exhaustion: with 2 banks, a 3-deep activation goes untraced but
   cycle accounting continues. *)
let test_bank_exhaustion () =
  let t = Tracer.create ~config:{ Tracer.default_config with Tracer.banks = 2 } () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_sloop ~stl:1 ~nlocals:0 ~frame:1 ~now:1;
  s.Hydra.Trace.on_sloop ~stl:2 ~nlocals:0 ~frame:1 ~now:2;
  s.Hydra.Trace.on_eloop ~stl:2 ~now:8;
  s.Hydra.Trace.on_eloop ~stl:1 ~now:9;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:10;
  Alcotest.(check int) "one untraced activation" 1 (Tracer.untraced_activations t);
  let deepest = Option.get (Tracer.find_stats t 2) in
  Alcotest.(check int) "cycles still counted" 6 deepest.Stats.cycles

(* Local-slot reservation failure also blocks a bank (paper Table 4:
   sloop reserves n local variable store timestamps). *)
let test_local_reservation () =
  let t =
    Tracer.create ~config:{ Tracer.default_config with Tracer.local_slots = 4 } ()
  in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:3 ~frame:1 ~now:0;
  s.Hydra.Trace.on_sloop ~stl:1 ~nlocals:3 ~frame:1 ~now:1 (* 3+3 > 4 *);
  s.Hydra.Trace.on_eloop ~stl:1 ~now:5;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:9;
  Alcotest.(check int) "inner untraced" 1 (Tracer.untraced_activations t)

(* Dynamic disabling: entries beyond the cap release banks. *)
let test_entry_cap () =
  let t =
    Tracer.create
      ~config:{ Tracer.default_config with Tracer.max_entries_per_stl = Some 2 }
      ()
  in
  let s = Tracer.sink t in
  for i = 0 to 3 do
    s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:(i * 10);
    s.Hydra.Trace.on_eloop ~stl:0 ~now:((i * 10) + 5)
  done;
  Alcotest.(check int) "2 capped activations untraced" 2
    (Tracer.untraced_activations t);
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "entries still counted" 4 st.Stats.entries

(* Bank release on persistent overflow prediction (paper Sec. 5.2):
   after enough overflowing entries, the STL stops getting a bank, but
   the already-measured overflow frequency survives. *)
let test_release_overflowing () =
  let t =
    Tracer.create
      ~config:
        {
          Tracer.default_config with
          Tracer.st_limit = 1;
          release_overflowing = Some (2, 0.5);
        }
      ()
  in
  let s = Tracer.sink t in
  for entry = 0 to 5 do
    let base = entry * 100 in
    s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:base;
    (* each iteration writes 2 distinct lines -> overflows st_limit 1 *)
    s.Hydra.Trace.on_heap_store ~addr:(base * 64) ~now:(base + 1);
    s.Hydra.Trace.on_heap_store ~addr:((base * 64) + 4096) ~now:(base + 2);
    s.Hydra.Trace.on_eoi ~stl:0 ~now:(base + 10);
    s.Hydra.Trace.on_eloop ~stl:0 ~now:(base + 20)
  done;
  (* entries 1-3 traced (entries counter is incremented before the check,
     so release kicks in once entries > 2 AND freq >= 0.5) *)
  Alcotest.(check bool) "some activations released" true
    (Tracer.untraced_activations t > 0);
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "all entries counted" 6 st.Stats.entries;
  Alcotest.(check bool) "overflow freq survives release" true
    (Stats.overflow_freq st >= 0.5)

(* Two concurrent activations of the SAME STL (recursion): both get
   banks and the stats merge. *)
let test_recursive_same_stl () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:2 ~now:5;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:15;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:30;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "entries" 2 st.Stats.entries;
  Alcotest.(check int) "cycles = 10 + 30" 40 st.Stats.cycles;
  Alcotest.(check int) "depth 2" 2 (Tracer.max_dynamic_depth t)

(* Local-timestamp buffer is finite: after 64 other locals are stored,
   an old local's timestamp is gone. *)
let test_local_ts_eviction () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:1 ~frame:1 ~now:0;
  s.Hydra.Trace.on_local_store ~frame:1 ~slot:0 ~now:2;
  for i = 1 to Hydra.Config.default.local_ts_slots do
    s.Hydra.Trace.on_local_store ~frame:(100 + i) ~slot:0 ~now:(2 + i)
  done;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:100;
  s.Hydra.Trace.on_local_load ~frame:1 ~slot:0 ~pc:9 ~now:105;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:110;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "local dependency lost to eviction" 0
    st.Stats.crit_prev_count

(* The extended-TEST per-PC bins record every detected arc. *)
let test_pc_binning () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_heap_store ~addr:0 ~now:3;
  s.Hydra.Trace.on_heap_store ~addr:400 ~now:5;
  s.Hydra.Trace.on_eoi ~stl:0 ~now:10;
  s.Hydra.Trace.on_heap_load ~addr:0 ~pc:111 ~now:12;
  s.Hydra.Trace.on_heap_load ~addr:400 ~pc:222 ~now:14;
  s.Hydra.Trace.on_heap_load ~addr:0 ~pc:111 ~now:16;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:20;
  let st = Option.get (Tracer.find_stats t 0) in
  let bins = Stats.fold_pc_bins (fun pc b acc -> (pc, b) :: acc) st [] in
  let bin111 = List.assoc 111 bins and bin222 = List.assoc 222 bins in
  Alcotest.(check int) "pc 111 hits" 2 bin111.Stats.hits;
  Alcotest.(check int) "pc 111 min len" 9 bin111.Stats.min_len;
  Alcotest.(check int) "pc 222 hits" 1 bin222.Stats.hits;
  Alcotest.(check int) "pc 222 len" 9 bin222.Stats.total_len

(* Multiple entries: frequencies exclude each activation's first thread. *)
let test_multi_entry_denominator () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  for e = 0 to 1 do
    let base = e * 1000 in
    s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:base;
    s.Hydra.Trace.on_heap_store ~addr:8 ~now:(base + 5);
    s.Hydra.Trace.on_eoi ~stl:0 ~now:(base + 10);
    s.Hydra.Trace.on_heap_load ~addr:8 ~pc:1 ~now:(base + 12);
    s.Hydra.Trace.on_heap_store ~addr:8 ~now:(base + 15);
    s.Hydra.Trace.on_eloop ~stl:0 ~now:(base + 20)
  done;
  let st = Option.get (Tracer.find_stats t 0) in
  Alcotest.(check int) "4 threads" 4 st.Stats.threads;
  Alcotest.(check int) "2 entries" 2 st.Stats.entries;
  Alcotest.(check int) "2 arcs" 2 st.Stats.crit_prev_count;
  (* denominator is threads - entries = 2, so frequency is exactly 1 *)
  Alcotest.(check (float 1e-9)) "freq 1.0" 1.0 (Stats.crit_prev_freq st)

(* ------------------------------------------------------------------ *)
(* Figure 9: TEST concludes the every-nth-parallel loop is serial. *)
let test_figure9_imprecision () =
  let src =
    {|
int[] a;
def main() {
  int n = 5;
  a = new int[4000];
  a[0] = 1;
  for (int i = 1; i < 4000; i = i + 1) {
    if (i % n != 0) {
      // load early, store late: the arc is short relative to the
      // thread, so the high arc count makes the loop look serial
      int t = a[i - 1];
      t = t * 3 + 1;
      t = t * 5 % 997;
      t = t * 7 % 991;
      t = t * 11 % 983;
      t = t * 13 % 977;
      a[i] = t % 100 + 1;
    }
  }
  print_int(a[3999]);
}
|}
  in
  let { Jrpm.Pipeline.tracer; _ } = Jrpm.Pipeline.profile_only src in
  (* the big loop is the one with the most cycles *)
  let _, st =
    List.fold_left
      (fun ((_, best) as acc) ((_, s) as cand) ->
        if s.Stats.cycles > best.Stats.cycles then cand else acc)
      (List.hd (Tracer.stats tracer))
      (Tracer.stats tracer)
  in
  (* parallelism exists at every 5th iteration, but the arc count to the
     previous thread is high, so TEST deems it dependence-bound *)
  Alcotest.(check bool) "high prev-thread arc frequency" true
    (Stats.crit_prev_freq st > 0.5);
  let e = Test_core.Analyzer.estimate st in
  Alcotest.(check bool) "estimated speedup low" true (e.est_speedup < 2.5)

(* Child-cycle attribution feeds Equation 2's nesting forest. *)
let test_child_cycles () =
  let t = Tracer.create () in
  let s = Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:0;
  s.Hydra.Trace.on_sloop ~stl:1 ~nlocals:0 ~frame:1 ~now:10;
  s.Hydra.Trace.on_eloop ~stl:1 ~now:30;
  s.Hydra.Trace.on_eloop ~stl:0 ~now:50;
  let cc = Tracer.child_cycles t in
  Alcotest.(check (option int)) "child under parent" (Some 20)
    (List.assoc_opt (0, 1) cc);
  Alcotest.(check (option int)) "root at top" (Some 50)
    (List.assoc_opt (-1, 0) cc)

(* ---------------- fused limit pairs ---------------- *)

(* Everything a tracer reports for one STL, pc bins in PC order: two
   runs agree on an STL exactly when their digests are equal. *)
let stats_digest stats =
  List.map
    (fun (stl, (s : Stats.t)) ->
      ( stl,
        [
          s.Stats.cycles; s.Stats.threads; s.Stats.entries;
          s.Stats.traced_threads; s.Stats.traced_entries;
          s.Stats.crit_prev_count; s.Stats.crit_prev_len;
          s.Stats.crit_earlier_count; s.Stats.crit_earlier_len;
          s.Stats.overflow_threads; s.Stats.max_load_lines;
          s.Stats.max_store_lines;
        ],
        List.sort compare
          (Stats.fold_pc_bins
             (fun pc (b : Stats.pc_bin) acc ->
               (pc, b.Stats.hits, b.Stats.total_len, b.Stats.min_len,
                b.Stats.thread_size_sum)
               :: acc)
             s []) ))
    stats

(* What the analysis reads from a tracer under one limit pair. *)
let pair_view t ~pair =
  ( stats_digest (Tracer.stats ~pair t),
    Tracer.child_cycles t,
    Tracer.max_dynamic_depth t,
    Tracer.untraced_activations t )

(* Six two-thread entries of STL 0 whose second thread writes two
   distinct lines: half the threads overflow a one-line store buffer,
   none a two-line one. *)
let overflowing_entries (s : Hydra.Trace.sink) =
  for entry = 0 to 5 do
    let base = entry * 100 in
    s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:0 ~frame:1 ~now:base;
    s.Hydra.Trace.on_heap_store ~addr:(base * 64) ~now:(base + 1);
    s.Hydra.Trace.on_heap_load ~addr:(base * 64) ~pc:7 ~now:(base + 2);
    s.Hydra.Trace.on_eoi ~stl:0 ~now:(base + 10);
    s.Hydra.Trace.on_heap_load ~addr:(base * 64) ~pc:7 ~now:(base + 11);
    s.Hydra.Trace.on_heap_store ~addr:((base * 64) + 4096) ~now:(base + 12);
    s.Hydra.Trace.on_heap_store ~addr:((base * 64) + 8192) ~now:(base + 13);
    s.Hydra.Trace.on_eloop ~stl:0 ~now:(base + 20)
  done

let run_fused configs feed =
  let t = Tracer.create_fused configs in
  feed (Tracer.sink t);
  t

(* Without a release, any limit vector is served by one run, and each
   pair reports what a tracer given that pair alone reports. *)
let test_fused_pairs_agree () =
  let config l =
    { Tracer.default_config with Tracer.ld_limit = l; st_limit = l;
      release_overflowing = None }
  in
  let configs = List.map config [ 1; 2; 4; 64 ] in
  let fused = run_fused configs overflowing_entries in
  Alcotest.(check (list int)) "no pair departs" [] (Tracer.departed fused);
  List.iteri
    (fun pair c ->
      Alcotest.(check bool)
        (Printf.sprintf "pair %d = its own tracer" pair)
        true
        (pair_view fused ~pair
        = pair_view (run_fused [ c ] overflowing_entries) ~pair:0))
    configs;
  let overflow pair =
    (Option.get (Tracer.find_stats ~pair fused 0)).Stats.overflow_threads
  in
  Alcotest.(check (list int)) "overflow counts per pair" [ 6; 0; 0; 0 ]
    (List.map overflow [ 0; 1; 2; 3 ]);
  Alcotest.check_raises "configs that differ beyond the limits"
    (Invalid_argument
       "Tracer.create_fused: configs differ beyond ld_limit/st_limit")
    (fun () ->
      ignore
        (Tracer.create_fused
           [ config 1; { (config 2) with Tracer.banks = 2 } ]))

(* A release decision the pairs disagree on splits the run: the run
   follows pair 0 (released from the second entry on), the 64-line pair
   departs and its statistics are refused, and a run of the departed
   pair alone — what replay decodes the record again for — gives the
   separate-tracer answer. *)
let test_fused_release_split () =
  let config st_limit =
    { Tracer.default_config with Tracer.st_limit;
      release_overflowing = Some (0, 0.5) }
  in
  let fused = run_fused [ config 1; config 64 ] overflowing_entries in
  Alcotest.(check (list int)) "the 64-line pair departs" [ 1 ]
    (Tracer.departed fused);
  Alcotest.check_raises "departed pair's stats raise"
    (Invalid_argument "Tracer: limit pair 1 departed at a release split")
    (fun () -> ignore (Tracer.stats ~pair:1 fused));
  Alcotest.check_raises "departed pair's find_stats raises"
    (Invalid_argument "Tracer: limit pair 1 departed at a release split")
    (fun () -> ignore (Tracer.find_stats ~pair:1 fused 0));
  let alone st = run_fused [ config st ] overflowing_entries in
  Alcotest.(check bool) "pair 0 = its own tracer" true
    (pair_view fused ~pair:0 = pair_view (alone 1) ~pair:0);
  let rerun = run_fused [ config 64 ] overflowing_entries in
  Alcotest.(check bool) "re-run of the departed pair = its own tracer" true
    (pair_view rerun ~pair:0 = pair_view (alone 64) ~pair:0);
  Alcotest.(check (pair int int)) "the answers differ: untraced activations"
    (5, 0)
    (Tracer.untraced_activations fused, Tracer.untraced_activations rerun)

(* ---------------- hot-path allocation ---------------- *)

(* The tentpole invariant of the flat-cache rewrite: with observability
   disabled, heap and local load/store events (and eoi) allocate
   nothing on the minor heap in steady state — with one limit pair or
   several. Mirrors the null-sink test in test_obs.ml; the budget
   leaves room for the [Gc.minor_words] boxing itself. *)
let hot_path_words t =
  let s = Test_core.Tracer.sink t in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:4 ~frame:1 ~now:0;
  (* warm up: fill the FIFO past capacity so the measured window runs
     in steady state (evictions, dedup hits, bank arcs all exercised) *)
  for i = 1 to 10_000 do
    s.Hydra.Trace.on_heap_store ~addr:(i * 7 mod 8192) ~now:i
  done;
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    let addr = i * 7 mod 8192 in
    let now = 10_000 + (4 * i) in
    s.Hydra.Trace.on_heap_store ~addr ~now;
    s.Hydra.Trace.on_heap_load ~addr ~pc:3 ~now:(now + 1);
    s.Hydra.Trace.on_local_store ~frame:1 ~slot:(i land 3) ~now:(now + 2);
    s.Hydra.Trace.on_local_load ~frame:1 ~slot:(i land 3) ~pc:5 ~now:(now + 3);
    if i land 63 = 0 then s.Hydra.Trace.on_eoi ~stl:0 ~now:(now + 3)
  done;
  Gc.minor_words () -. before

(* Streams past the steady state [hot_path_words] covers. Each builds a
   tracer once and returns a runner: [run n] drives about [n] events
   and returns how many it sent. *)

(* 8 frames x 16 slots = 128 live keys > the 64 local slots: every
   local event may evict. *)
let local_evicting_stream () =
  let s = Test_core.Tracer.sink (Test_core.Tracer.create ()) in
  let now = ref 0 in
  s.Hydra.Trace.on_sloop ~stl:0 ~nlocals:8 ~frame:1 ~now:0;
  fun n ->
    for i = 1 to n do
      let frame = 1 + (i land 7) and slot = (i lsr 3) land 15 in
      incr now;
      s.Hydra.Trace.on_local_store ~frame ~slot ~now:!now;
      incr now;
      s.Hydra.Trace.on_local_load ~frame ~slot ~pc:5 ~now:!now;
      if i land 63 = 0 then begin
        incr now;
        s.Hydra.Trace.on_eoi ~stl:0 ~now:!now
      end
    done;
    (2 * n) + (n / 64)

(* A depth-8 sloop/eloop nest (all 8 banks live) around a heap-event
   body, ~247 events per repetition. Banks are pooled and child-cycle
   keys are packed ints mutated in place, and the default bank-release
   test compares the float [Stats.overflow_freq_of] returns inline,
   unboxed; the stream reads 0.0000 words/event. Boxing that float
   (2 words per sloop) read 0.0648, one 3-word tuple per sloop 0.16,
   so its budget sits below both. *)
let deep_nest_stream () =
  let s = Test_core.Tracer.sink (Test_core.Tracer.create ()) in
  let now = ref 0 in
  fun n ->
    let events = ref 0 in
    for _ = 1 to max 1 (n / 247) do
      for d = 0 to 7 do
        incr now;
        s.Hydra.Trace.on_sloop ~stl:d ~nlocals:2 ~frame:(d + 1) ~now:!now;
        incr events
      done;
      for i = 1 to 112 do
        let addr = i * 3 mod 4096 in
        incr now;
        s.Hydra.Trace.on_heap_store ~addr ~now:!now;
        incr now;
        s.Hydra.Trace.on_heap_load ~addr ~pc:9 ~now:!now;
        events := !events + 2;
        if i land 15 = 0 then begin
          incr now;
          s.Hydra.Trace.on_eoi ~stl:7 ~now:!now;
          incr events
        end
      done;
      for d = 7 downto 0 do
        incr now;
        s.Hydra.Trace.on_eloop ~stl:d ~now:!now;
        incr events
      done
    done;
    !events

(* Minor words per event of 200k events after a 20k-event warm-up. *)
let stream_words_per_event stream =
  let run = stream () in
  ignore (run 20_000 : int);
  let before = Gc.minor_words () in
  let events = run 200_000 in
  (Gc.minor_words () -. before) /. float_of_int events

let test_hot_path_no_alloc () =
  let pairs =
    List.map
      (fun st_limit -> { Tracer.default_config with Tracer.st_limit })
      [ 32; 64; 128 ]
  in
  List.iter
    (fun (what, t) ->
      let allocated = hot_path_words t in
      Alcotest.(check bool)
        (Printf.sprintf "%s: per-event path allocates nothing (saw %.0f words)"
           what allocated)
        true (allocated < 256.))
    [
      ("one pair", Tracer.create ());
      ("three pairs", Tracer.create_fused pairs);
    ];
  (* budgets in minor words per event: an evicting local slot costs
     nothing, nor does a sloop on the nest; a boxed float per sloop on
     the nest reads 0.0648 *)
  List.iter
    (fun (what, stream, budget) ->
      let words = stream_words_per_event stream in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f words/event within %.2f" what words budget)
        true (words <= budget))
    [
      ("local slots evicting", local_evicting_stream, 0.01);
      ("depth-8 nest", deep_nest_stream, 0.01);
    ]

let suites =
  [
    ( "tracer.dependency",
      [
        Alcotest.test_case "figure 3 worked example" `Quick test_figure3;
        Alcotest.test_case "<t-1 bin" `Quick test_earlier_bin;
        Alcotest.test_case "pre-loop store" `Quick test_preloop_store_no_arc;
        Alcotest.test_case "same-thread store" `Quick test_same_thread_no_arc;
        Alcotest.test_case "local variable arc" `Quick test_local_dependency;
        Alcotest.test_case "local key frame aliasing (slot >= 1024)" `Quick
          test_local_key_no_frame_aliasing;
        Alcotest.test_case "local slot bound rejected" `Quick
          test_local_slot_bound_rejected;
        Alcotest.test_case "negative heap address rejected" `Quick
          test_negative_address_rejected;
        Alcotest.test_case "nested exclusivity" `Quick test_nested_exclusivity;
      ] );
    ( "tracer.overflow",
      [
        Alcotest.test_case "figure 4 worked example" `Quick test_figure4_overflow;
        Alcotest.test_case "dedup aliasing error" `Quick test_store_dedup_aliasing;
        Alcotest.test_case "history loss" `Quick test_history_loss;
      ] );
    ( "tracer.banks",
      [
        Alcotest.test_case "bank exhaustion" `Quick test_bank_exhaustion;
        Alcotest.test_case "local reservation" `Quick test_local_reservation;
        Alcotest.test_case "entry cap" `Quick test_entry_cap;
        Alcotest.test_case "child cycles" `Quick test_child_cycles;
        Alcotest.test_case "release overflowing" `Quick test_release_overflowing;
        Alcotest.test_case "recursive same STL" `Quick test_recursive_same_stl;
        Alcotest.test_case "local ts eviction" `Quick test_local_ts_eviction;
        Alcotest.test_case "pc binning" `Quick test_pc_binning;
        Alcotest.test_case "multi-entry denominator" `Quick
          test_multi_entry_denominator;
      ] );
    ( "tracer.imprecision",
      [ Alcotest.test_case "figure 9 example" `Quick test_figure9_imprecision ] );
    ( "tracer.fused",
      [
        Alcotest.test_case "pairs agree without a release" `Quick
          test_fused_pairs_agree;
        Alcotest.test_case "release split" `Quick test_fused_release_split;
      ] );
    ( "tracer.hot_path",
      [
        Alcotest.test_case "per-event path allocation-free" `Quick
          test_hot_path_no_alloc;
      ] );
  ]
