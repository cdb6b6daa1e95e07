(* Unit and property tests for the util library. *)

module Fifo = Bounded_assoc_fifo

let test_fifo_basic () =
  let f = Fifo.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Fifo.length f);
  Fifo.set f 1 "a";
  Fifo.set f 2 "b";
  Alcotest.(check (option string)) "find 1" (Some "a") (Fifo.find f 1);
  Alcotest.(check (option string)) "find missing" None (Fifo.find f 9);
  Fifo.set f 3 "c";
  Fifo.set f 4 "d" (* evicts key 1 *);
  Alcotest.(check (option string)) "evicted" None (Fifo.find f 1);
  Alcotest.(check (option string)) "survives" (Some "b") (Fifo.find f 2);
  Alcotest.(check int) "evictions" 1 (Fifo.evictions f);
  Alcotest.(check int) "length at cap" 3 (Fifo.length f)

let test_fifo_refresh () =
  let f = Fifo.create ~capacity:2 in
  Fifo.set f 1 "a";
  Fifo.set f 2 "b";
  Fifo.set f 1 "a2" (* refresh: 1 becomes newest *);
  Fifo.set f 3 "c" (* evicts 2, not 1 *);
  Alcotest.(check (option string)) "refreshed survives" (Some "a2") (Fifo.find f 1);
  Alcotest.(check (option string)) "stale evicted" None (Fifo.find f 2)

let test_fifo_clear () =
  let f = Fifo.create ~capacity:2 in
  Fifo.set f 1 "a";
  Fifo.clear f;
  Alcotest.(check int) "cleared" 0 (Fifo.length f);
  Alcotest.(check bool) "mem after clear" false (Fifo.mem f 1)

let test_fifo_invalid () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Bounded_assoc_fifo.create")
    (fun () -> ignore (Fifo.create ~capacity:0))

(* Property: the fifo holds exactly the last <=capacity distinct keys. *)
let prop_fifo_model =
  QCheck.Test.make ~name:"fifo matches last-k-distinct-keys model" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 15)))
    (fun (cap, keys) ->
      let f = Fifo.create ~capacity:cap in
      List.iter (fun k -> Fifo.set f k k) keys;
      (* model: last occurrence order, most recent first *)
      let distinct_recent =
        List.fold_left
          (fun acc k -> k :: List.filter (fun x -> x <> k) acc)
          [] keys
      in
      let kept = List.filteri (fun i _ -> i < cap) distinct_recent in
      List.for_all (fun k -> Fifo.find f k = Some k) kept
      && List.for_all
           (fun k -> not (Fifo.mem f k))
           (List.filteri (fun i _ -> i >= cap) distinct_recent)
      && Fifo.length f = List.length kept)

(* Force the stale-order compaction path: each refresh of a live key
   leaves a stale pair in the order queue, and once the queue exceeds
   4*cap it is rebuilt from the live table. Behaviour before and after
   the rebuild must be indistinguishable. *)
let test_fifo_compaction () =
  let f = Fifo.create ~capacity:2 in
  Fifo.set f 1 "a";
  Fifo.set f 2 "b";
  (* 20 refreshes of key 1 push the queue well past 4*cap = 8 *)
  for i = 1 to 20 do
    Fifo.set f 1 (Printf.sprintf "a%d" i)
  done;
  Alcotest.(check int) "no eviction from refreshes" 0 (Fifo.evictions f);
  Alcotest.(check int) "still two live entries" 2 (Fifo.length f);
  (* after compaction, key 2 is still the oldest and evicts first *)
  Fifo.set f 3 "c";
  Alcotest.(check (option string)) "refreshed key survives" (Some "a20")
    (Fifo.find f 1);
  Alcotest.(check (option string)) "stale key evicted" None (Fifo.find f 2);
  Alcotest.(check int) "one eviction" 1 (Fifo.evictions f)

(* Property under churn: interleaved inserts and refreshes (enough
   traffic to cross the 4*cap rebuild threshold many times) agree with
   a naive most-recently-set model on membership, values, length, AND
   total eviction count. *)
let prop_fifo_churn =
  QCheck.Test.make ~name:"fifo churn: compaction preserves order and evictions"
    ~count:100
    QCheck.(pair (int_range 1 6) (list_of_size (QCheck.Gen.return 400) (int_range 0 9)))
    (fun (cap, keys) ->
      let f = Fifo.create ~capacity:cap in
      (* model: (key, value) list, oldest first; count evictions *)
      let model = ref [] and evicted = ref 0 in
      List.iteri
        (fun step k ->
          Fifo.set f k step;
          if List.mem_assoc k !model then
            model := List.remove_assoc k !model @ [ (k, step) ]
          else begin
            if List.length !model >= cap then begin
              model := List.tl !model;
              incr evicted
            end;
            model := !model @ [ (k, step) ]
          end)
        keys;
      Fifo.length f = List.length !model
      && Fifo.evictions f = !evicted
      && List.for_all (fun (k, v) -> Fifo.find f k = Some v) !model
      && List.for_all
           (fun k -> List.mem_assoc k !model || not (Fifo.mem f k))
           keys)

(* ---- Timestamp_cache: the flat int-only replacement used on the
   tracer hot path. Must be observationally equivalent to
   Bounded_assoc_fifo (the reference implementation above). ---- *)

module Tc = Util.Timestamp_cache

let test_tc_basic () =
  let c = Tc.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Tc.length c);
  Alcotest.(check int) "miss is -1" (-1) (Tc.get c 1);
  Tc.set c 1 10;
  Tc.set c 2 20;
  Alcotest.(check int) "get 1" 10 (Tc.get c 1);
  Tc.set c 3 30;
  Tc.set c 4 40 (* evicts key 1 *);
  Alcotest.(check int) "evicted" (-1) (Tc.get c 1);
  Alcotest.(check int) "survives" 20 (Tc.get c 2);
  Alcotest.(check bool) "mem" true (Tc.mem c 2);
  Alcotest.(check int) "evictions" 1 (Tc.evictions c);
  Alcotest.(check int) "length at cap" 3 (Tc.length c);
  (* refresh moves to the back of the eviction order *)
  Tc.set c 2 21;
  Tc.set c 5 50 (* evicts 3, not the refreshed 2 *);
  Alcotest.(check int) "refreshed survives" 21 (Tc.get c 2);
  Alcotest.(check int) "stale evicted" (-1) (Tc.get c 3);
  Tc.clear c;
  Alcotest.(check int) "cleared" 0 (Tc.length c);
  Alcotest.(check bool) "mem after clear" false (Tc.mem c 2)

let test_tc_evict_oldest () =
  let c = Tc.create ~capacity:4 in
  Alcotest.(check int) "evict empty" (-1) (Tc.evict_oldest c);
  for k = 0 to 3 do
    Tc.set c k (100 + k)
  done;
  Tc.set c 0 200 (* refresh: 0 is now the newest *);
  Alcotest.(check int) "oldest is 1" 101 (Tc.evict_oldest c);
  Alcotest.(check int) "then 2" 102 (Tc.evict_oldest c);
  Alcotest.(check int) "then 3" 103 (Tc.evict_oldest c);
  Alcotest.(check int) "then refreshed 0" 200 (Tc.evict_oldest c);
  Alcotest.(check int) "empty again" 0 (Tc.length c);
  Alcotest.(check int) "explicit evictions counted" 4 (Tc.evictions c)

let test_tc_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Timestamp_cache.create") (fun () ->
      ignore (Tc.create ~capacity:0));
  let c = Tc.create ~capacity:2 in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Timestamp_cache.set: negative key") (fun () ->
      Tc.set c (-1) 0);
  Alcotest.check_raises "negative value"
    (Invalid_argument "Timestamp_cache.set: negative value") (fun () ->
      Tc.set c 0 (-1))

(* Property: on any random stream of sets, Timestamp_cache agrees with
   Bounded_assoc_fifo on every lookup, the length, and the eviction
   count. Two key ranges: a dense one (0..9, heavy refresh traffic) and
   sparse ones (forcing probe collisions and the backward-shift
   deletion path, across the table's wrap too). *)
let tc_matches_fifo cap keys =
  let c = Tc.create ~capacity:cap in
  let f = Fifo.create ~capacity:cap in
  List.iter
    (fun (k, v) ->
      Tc.set c k v;
      Fifo.set f k v)
    keys;
  Tc.length c = Fifo.length f
  && Tc.evictions c = Fifo.evictions f
  && List.for_all
       (fun (k, _) ->
         Tc.mem c k = Fifo.mem f k
         && Tc.get c k = Option.value ~default:(-1) (Fifo.find f k))
       keys

let prop_tc_equiv_dense =
  QCheck.Test.make ~name:"timestamp cache = bounded fifo (dense keys)"
    ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (Gen.return 400) (pair (int_range 0 9) (int_range 0 1000))))
    (fun (cap, keys) -> tc_matches_fifo cap keys)

(* The first [n] keys whose probe starts at [slot] in a cache of
   [capacity]. *)
let keys_homed ~capacity ~slot n =
  let c = Tc.create ~capacity in
  let rec go k acc left =
    if left = 0 then List.rev acc
    else if Tc.home c k = slot then go (k + 1) (k :: acc) (left - 1)
    else go (k + 1) acc left
  in
  go 0 [] n

(* Three key families over up to 8 entries: multiples of a large
   stride; keys that all share one home slot, so every probe runs the
   whole chain; and keys homed at the last two slots and the first, so
   probe chains and backward-shift deletion wrap past the end. *)
let gen_sparse_stream =
  QCheck.Gen.(
    int_range 1 8 >>= fun cap ->
    let last = Tc.slots (Tc.create ~capacity:cap) - 1 in
    frequency
      [
        (2, return (List.init 31 (fun k -> k * 1_048_573)));
        ( 1,
          int_range 0 last >|= fun slot ->
          keys_homed ~capacity:cap ~slot 12 );
        ( 1,
          return
            (keys_homed ~capacity:cap ~slot:last 6
            @ keys_homed ~capacity:cap ~slot:(last - 1) 3
            @ keys_homed ~capacity:cap ~slot:0 3) );
      ]
    >>= fun pool ->
    list_size (int_range 0 60) (pair (oneofl pool) (int_range 0 1000))
    >|= fun keys -> (cap, keys))

let prop_tc_equiv_sparse =
  QCheck.Test.make ~name:"timestamp cache = bounded fifo (sparse keys)"
    ~count:200
    (QCheck.make
       ~print:
         QCheck.Print.(pair int (list (pair int int)))
       gen_sparse_stream)
    (fun (cap, keys) -> tc_matches_fifo cap keys)

(* Churn including explicit evict_oldest, against a naive list model
   (oldest first) — exercises hole-shifting with live FIFO links. *)
let prop_tc_churn_evict =
  QCheck.Test.make ~name:"timestamp cache churn with explicit eviction"
    ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (Gen.return 300)
           (pair (int_range 0 11) (int_range 0 2))))
    (fun (cap, ops) ->
      let c = Tc.create ~capacity:cap in
      let model = ref [] in
      (* (key, value) pairs, oldest first *)
      let ok = ref true in
      List.iteri
        (fun step (k, op) ->
          match op with
          | 0 | 1 ->
              Tc.set c k step;
              if List.mem_assoc k !model then
                model := List.remove_assoc k !model @ [ (k, step) ]
              else begin
                if List.length !model >= cap then model := List.tl !model;
                model := !model @ [ (k, step) ]
              end
          | _ -> (
              let v = Tc.evict_oldest c in
              match !model with
              | [] -> if v <> -1 then ok := false
              | (_, mv) :: rest ->
                  if v <> mv then ok := false;
                  model := rest))
        ops;
      !ok
      && Tc.length c = List.length !model
      && List.for_all (fun (k, v) -> Tc.get c k = v) !model)

let test_running_stat_merge () =
  let a = Util.Running_stat.create () and b = Util.Running_stat.create () in
  List.iter (Util.Running_stat.add a) [ 2.; 8. ];
  List.iter (Util.Running_stat.add b) [ 1.; 5.; 6. ];
  Util.Running_stat.merge a b;
  Alcotest.(check int) "merged count" 5 (Util.Running_stat.count a);
  Alcotest.(check (float 1e-9)) "merged sum" 22. (Util.Running_stat.sum a);
  Alcotest.(check (float 1e-9)) "merged min" 1. (Util.Running_stat.min a);
  Alcotest.(check (float 1e-9)) "merged max" 8. (Util.Running_stat.max a);
  (* merging an empty accumulator is the identity *)
  Util.Running_stat.merge a (Util.Running_stat.create ());
  Alcotest.(check int) "empty merge keeps count" 5 (Util.Running_stat.count a);
  Alcotest.(check (float 1e-9)) "merged mean" (22. /. 5.)
    (Util.Running_stat.mean a)

let test_rng_deterministic () =
  let a = Util.Rng.create ~seed:42 in
  let b = Util.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.next a) (Util.Rng.next b)
  done

let test_rng_bounds () =
  let r = Util.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int") (fun () ->
      ignore (Util.Rng.int r 0))

let test_rng_zero_seed () =
  let r = Util.Rng.create ~seed:0 in
  (* must not be a stuck all-zeros generator *)
  let distinct = Hashtbl.create 16 in
  for _ = 1 to 50 do
    Hashtbl.replace distinct (Util.Rng.next r) ()
  done;
  Alcotest.(check bool) "varied" true (Hashtbl.length distinct > 40)

let test_running_stat () =
  let s = Util.Running_stat.create () in
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Util.Running_stat.mean s);
  List.iter (Util.Running_stat.add s) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Util.Running_stat.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Util.Running_stat.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Util.Running_stat.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (Util.Running_stat.max s);
  Util.Running_stat.reset s;
  Alcotest.(check int) "reset" 0 (Util.Running_stat.count s)

let test_text_table () =
  let out =
    Util.Text_table.render ~aligns:[ Util.Text_table.Left; Util.Text_table.Right ]
      ~header:[ "name"; "n" ]
      [ [ "a"; "1" ]; [ "longer"; "22" ] ]
  in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  (* right-aligned numbers: the "1" row pads on the left *)
  Alcotest.(check bool) "contains padded row" true
    (let lines = String.split_on_char '\n' out in
     List.exists (fun l -> l = "a        1") lines)

let suites =
  [
    ( "util.fifo",
      [
        Alcotest.test_case "basic eviction" `Quick test_fifo_basic;
        Alcotest.test_case "refresh order" `Quick test_fifo_refresh;
        Alcotest.test_case "clear" `Quick test_fifo_clear;
        Alcotest.test_case "invalid capacity" `Quick test_fifo_invalid;
        Alcotest.test_case "stale-order compaction" `Quick test_fifo_compaction;
        QCheck_alcotest.to_alcotest prop_fifo_model;
        QCheck_alcotest.to_alcotest prop_fifo_churn;
      ] );
    ( "util.timestamp_cache",
      [
        Alcotest.test_case "basic eviction and refresh" `Quick test_tc_basic;
        Alcotest.test_case "evict_oldest order" `Quick test_tc_evict_oldest;
        Alcotest.test_case "invalid arguments" `Quick test_tc_invalid;
        QCheck_alcotest.to_alcotest prop_tc_equiv_dense;
        QCheck_alcotest.to_alcotest prop_tc_equiv_sparse;
        QCheck_alcotest.to_alcotest prop_tc_churn_evict;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "zero seed" `Quick test_rng_zero_seed;
      ] );
    ( "util.stat",
      [
        Alcotest.test_case "running stat" `Quick test_running_stat;
        Alcotest.test_case "merge" `Quick test_running_stat_merge;
        Alcotest.test_case "text table" `Quick test_text_table;
      ] );
  ]
