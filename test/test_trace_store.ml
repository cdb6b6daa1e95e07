(* The trace store: varint/zigzag primitives, the event codec
   (encode∘decode = id on arbitrary event streams, including the RLE
   path), corruption/truncation error paths, and the headline
   replay-determinism guarantee — replaying a captured sweep through a
   fresh tracer + analyzer reproduces the interpreted Report_summary
   JSON byte-for-byte, pinned against the same golden file as the
   interpreted sweep. *)

module V = Trace_store.Varint
module E = Trace_store.Event
module W = Trace_store.Writer
module R = Trace_store.Reader

(* magic, this version's byte, an empty header extension *)
let container_header =
  Trace_store.Layout.magic
  ^ String.make 1 (Char.chr Trace_store.Layout.version)
  ^ "\x00"

(* ---------------- varint primitives ---------------- *)

let encode_u n =
  let b = Buffer.create 10 in
  V.write_unsigned b n;
  Buffer.contents b

let encode_s n =
  let b = Buffer.create 10 in
  V.write_signed b n;
  Buffer.contents b

(* the decoders read a byte source in place, bounded by [limit] *)
let read_u s pos =
  V.read_unsigned_src (Trace_store.Bytesrc.of_string s) ~limit:(String.length s)
    pos

let read_s s pos =
  V.read_signed_src (Trace_store.Bytesrc.of_string s) ~limit:(String.length s)
    pos

let test_varint_encodings () =
  Alcotest.(check string) "0" "\x00" (encode_u 0);
  Alcotest.(check string) "127" "\x7f" (encode_u 127);
  Alcotest.(check string) "128" "\x80\x01" (encode_u 128);
  Alcotest.(check string) "300" "\xac\x02" (encode_u 300);
  (* zigzag: 0,-1,1,-2,2 → 0,1,2,3,4 *)
  Alcotest.(check string) "zz 0" "\x00" (encode_s 0);
  Alcotest.(check string) "zz -1" "\x01" (encode_s (-1));
  Alcotest.(check string) "zz 1" "\x02" (encode_s 1);
  Alcotest.(check string) "zz -2" "\x03" (encode_s (-2));
  Alcotest.(check bool) "write_unsigned rejects negatives" true
    (match encode_u (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_varint_extremes () =
  List.iter
    (fun n ->
      let s = encode_s n in
      Alcotest.(check int)
        (Printf.sprintf "signed round-trip %d" n)
        n
        (read_s s (ref 0));
      Alcotest.(check bool) "at most 9 bytes" true (String.length s <= 9))
    [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 40 ];
  List.iter
    (fun n ->
      let s = encode_u n in
      Alcotest.(check int)
        (Printf.sprintf "unsigned round-trip %d" n)
        n
        (read_u s (ref 0)))
    [ 0; 1; 127; 128; 16384; max_int ];
  (* ten groups overflow a native int; a varint cut by [limit] is
     truncated, even when the source goes on *)
  Alcotest.(check bool) "ten-byte varint overflows" true
    (match read_u (String.make 9 '\x80' ^ "\x01") (ref 0) with
    | _ -> false
    | exception V.Overflow -> true);
  Alcotest.(check bool) "varint cut by its limit" true
    (match
       V.read_unsigned_src (Trace_store.Bytesrc.of_string "\x80\x01") ~limit:1
         (ref 0)
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint signed round-trip on arbitrary ints"
    ~count:500
    QCheck.(frequency [ (4, small_signed_int); (1, int) ])
    (fun n -> read_s (encode_s n) (ref 0) = n)

(* ---------------- event stream codec ---------------- *)

let gen_operand =
  QCheck.Gen.(
    frequency
      [
        (4, int_range 0 4096);
        (2, int_range 0 (1 lsl 30));
        (1, map (fun n -> -n) (int_range 0 (1 lsl 30)));
        (1, oneofl [ 0; 1; max_int; min_int; min_int + 1; max_int - 1 ]);
      ])

let gen_event =
  QCheck.Gen.(
    gen_operand >>= fun a ->
    gen_operand >>= fun b ->
    gen_operand >>= fun c ->
    gen_operand >>= fun now ->
    oneofl
      [
        E.Sloop { stl = a; nlocals = b; frame = c; now };
        E.Eoi { stl = a; now };
        E.Eloop { stl = a; now };
        E.Read_stats { stl = a; now };
        E.Heap_load { addr = a; pc = b; now };
        E.Heap_store { addr = a; now };
        E.Local_load { frame = a; slot = b; pc = c; now };
        E.Local_store { frame = a; slot = b; now };
        E.Call { callee = a; now };
        E.Return { now };
      ])

let arb_events =
  QCheck.make
    ~print:(fun es ->
      String.concat "; " (List.map (Format.asprintf "%a" E.pp) es))
    QCheck.Gen.(list_size (int_range 0 400) gen_event)

let encode_record ?(name = "r") ?(meta = Obs.Json.Obj []) events =
  let w = W.create () in
  let sink = W.sink w in
  List.iter (E.apply sink) events;
  (w, W.finish ~name ~meta w)

let encode_container ?name ?meta events =
  let _, record = encode_record ?name ?meta events in
  W.container [ record ]

let decode_single bytes =
  let r = R.of_string bytes in
  match R.next_record r with
  | None -> Alcotest.fail "container has no record"
  | Some record ->
      let sink, events = E.collector () in
      let stats = R.replay r sink in
      Alcotest.(check bool) "single record" true (R.next_record r = None);
      (record, stats, events ())

let check_roundtrip events =
  let bytes = encode_container events in
  let _, stats, got = decode_single bytes in
  List.length got = List.length events
  && List.for_all2 E.equal got events
  && stats.R.events = List.length events

let prop_events_roundtrip =
  QCheck.Test.make ~name:"encode∘decode = id on random event streams"
    ~count:200 arb_events check_roundtrip

(* a loop-shaped stream: identical per-iteration deltas, so every
   iteration after the first collapses into the RLE repeat counter *)
let loop_events ~iters ~body =
  List.concat
    (List.init iters (fun i ->
         List.init body (fun j ->
             E.Heap_load
               {
                 addr = (i * body * 8) + (j * 8);
                 pc = 100 + j;
                 now = (i * body * 2) + (j * 2);
               })
         @ [ E.Eoi { stl = 3; now = (i * body * 2) + (body * 2) } ]))

let test_rle_compresses_loops () =
  let events = loop_events ~iters:200 ~body:12 in
  let w, record = encode_record events in
  Alcotest.(check bool) "round-trips" true
    (let _, _, got = decode_single (W.container [ record ]) in
     List.for_all2 E.equal got events);
  (* 200 byte-identical iteration segments: one reference + a counter *)
  let ratio =
    float_of_int (W.reference_bytes w) /. float_of_int (String.length record)
  in
  Alcotest.(check bool)
    (Printf.sprintf "loop stream compresses >50x (got %.1fx)" ratio)
    true (ratio > 50.)

let test_record_identity () =
  let meta = Obs.Json.Obj [ ("k", Obs.Json.Int 42) ] in
  let bytes = encode_container ~name:"compress" ~meta [ E.Return { now = 7 } ] in
  let record, stats, got = decode_single bytes in
  Alcotest.(check string) "name" "compress" record.R.name;
  Alcotest.(check bool) "meta" true (record.R.meta = meta);
  Alcotest.(check int) "events" 1 stats.R.events;
  Alcotest.(check bool) "payload" true (got = [ E.Return { now = 7 } ])

let test_multi_record_and_skip () =
  let _, r1 = encode_record ~name:"a" [ E.Return { now = 1 } ] in
  let _, r2 = encode_record ~name:"b" [ E.Call { callee = 9; now = 2 } ] in
  let r = R.of_string (W.container [ r1; r2 ]) in
  (* skip record a without replaying it, then replay b *)
  (match R.next_record r with
  | Some { R.name = "a"; _ } -> ()
  | _ -> Alcotest.fail "expected record a");
  (match R.next_record r with
  | Some { R.name = "b"; _ } -> ()
  | _ -> Alcotest.fail "expected record b");
  let sink, events = E.collector () in
  ignore (R.replay r sink : R.replay_stats);
  Alcotest.(check bool) "b's payload" true
    (events () = [ E.Call { callee = 9; now = 2 } ]);
  Alcotest.(check bool) "end" true (R.next_record r = None)

let test_empty_record () =
  let record, stats, got = decode_single (encode_container []) in
  Alcotest.(check string) "name" "r" record.R.name;
  Alcotest.(check int) "no events" 0 stats.R.events;
  Alcotest.(check bool) "empty" true (got = [])

(* ---------------- error paths ---------------- *)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Reader.Corrupt")
  | exception R.Corrupt _ -> ()

let drain bytes =
  let r = R.of_string bytes in
  let rec go () =
    match R.next_record r with
    | None -> ()
    | Some _ ->
        ignore (R.replay r Hydra.Trace.null_sink : R.replay_stats);
        go ()
  in
  go ()

let test_corrupt_inputs () =
  let good = encode_container (loop_events ~iters:5 ~body:4) in
  expect_corrupt "empty file" (fun () -> drain "");
  expect_corrupt "bad magic" (fun () ->
      drain ("XTRC" ^ String.sub good 4 (String.length good - 4)));
  expect_corrupt "future version" (fun () ->
      let b = Bytes.of_string good in
      Bytes.set b 4 (Char.chr (Trace_store.Layout.version + 1));
      drain (Bytes.to_string b));
  (* truncation at any interior byte must be detected, not misread *)
  List.iter
    (fun keep ->
      expect_corrupt
        (Printf.sprintf "truncated to %d bytes" keep)
        (fun () -> drain (String.sub good 0 keep)))
    [ 5; 8; 20; String.length good / 2; String.length good - 1 ];
  (* a flipped payload byte is caught by decode or by the checksum *)
  let flipped =
    let b = Bytes.of_string good in
    let i = String.length good / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
    Bytes.to_string b
  in
  expect_corrupt "flipped byte" (fun () -> drain flipped);
  expect_corrupt "trailing garbage" (fun () -> drain (good ^ "\x00"))

(* ---------------- record checksum ---------------- *)

module L = Trace_store.Layout

(* The checksum rule as ARCHITECTURE.md §7 states it, one masked FNV-1a
   step per unsigned little-endian word, then per tail byte. *)
let reference_checksum h s =
  let step h w = (h lxor w) * 0x01000193 land 0xffffffff in
  let n = String.length s in
  let h = ref h in
  for k = 0 to (n / 4) - 1 do
    let byte j = Char.code s.[(4 * k) + j] in
    h :=
      step !h
        (byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24))
  done;
  for i = n land lnot 3 to n - 1 do
    h := step !h (Char.code s.[i])
  done;
  !h

let bigstring_of_string s =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (fun i c -> Bigarray.Array1.set b i c) s;
  b

(* Both backends, at every alignment and tail length, chained from a
   running state, agree with the stated rule. *)
let test_checksum_rule () =
  let rng = Util.Rng.create ~seed:24 in
  let text = String.init 96 (fun _ -> Char.chr (Util.Rng.int rng 256)) in
  let srcs =
    [ ("string", Trace_store.Bytesrc.Str text);
      ("bigstring", Trace_store.Bytesrc.Big (bigstring_of_string text)) ]
  in
  List.iter
    (fun (what, src) ->
      for pos = 0 to 3 do
        for len = 0 to 40 do
          let payload = String.sub text pos len in
          List.iter
            (fun h ->
              Alcotest.(check int)
                (Printf.sprintf "%s pos %d len %d from 0x%x" what pos len h)
                (reference_checksum h payload)
                (L.checksum h src ~pos ~len))
            [ L.checksum_init; 0; 0xffffffff; 0x1234567 ]
        done
      done)
    srcs

(* The [(start, len)] of every events payload in a container. *)
let events_payloads s =
  let pos = ref (String.length container_header) in
  let rec go acc =
    let tag = Char.code s.[!pos] in
    incr pos;
    let len = read_u s pos in
    let acc = if tag = L.tag_events then (!pos, len) :: acc else acc in
    pos := !pos + len;
    if tag = L.tag_container_end then List.rev acc else go acc
  in
  go []

(* Every single-byte change inside an events payload is caught, by the
   decoder or by the checksum: the checksum's word steps are bijections,
   so a changed word always changes the result. *)
let test_every_payload_byte_flip () =
  let good =
    encode_container
      (loop_events ~iters:5 ~body:4
      @ [ E.Heap_store { addr = 1 lsl 40; now = 500 }; E.Return { now = 501 } ])
  in
  drain good;
  let payloads = events_payloads good in
  Alcotest.(check bool) "has an events payload" true (payloads <> []);
  List.iter
    (fun (start, len) ->
      for i = start to start + len - 1 do
        List.iter
          (fun mask ->
            let b = Bytes.of_string good in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
            expect_corrupt
              (Printf.sprintf "byte %d xor 0x%02x" i mask)
              (fun () -> drain (Bytes.to_string b)))
          [ 0x01; 0x80; 0xff ]
      done)
    payloads

(* A container of the previous format version is refused by name. *)
let test_v1_refused () =
  let b = Bytes.of_string (encode_container (loop_events ~iters:3 ~body:2)) in
  Bytes.set b 4 '\x01';
  match drain (Bytes.to_string b) with
  | () -> Alcotest.fail "a version-1 container was accepted"
  | exception R.Corrupt msg ->
      let want = "unsupported trace format version 1" in
      Alcotest.(check bool)
        (Printf.sprintf "%S names the version" msg)
        true
        (String.length msg >= String.length want
        && String.sub msg 0 (String.length want) = want)

let hex_bytes h =
  String.concat ""
    (List.map
       (fun b -> String.make 1 (Char.chr (int_of_string ("0x" ^ b))))
       (String.split_on_char ' ' h))

(* ARCHITECTURE.md §7's worked example: six events of record "w". *)
let worked_events =
  E.Sloop { stl = 2; nlocals = 1; frame = 0; now = 5 }
  :: List.map (fun now -> E.Eoi { stl = 2; now }) [ 9; 13; 17; 21 ]
  @ [ E.Eloop { stl = 2; now = 23 } ]

let worked_record =
  [ "01 05"; "01 77"; "02 7B 7D";
    "02 14"; "0B 08"; "01 0A 04 02 00"; "02 08 04";
      "0B 03"; "02 08 00"; "00 02"; "03 04 04";
    "03 06"; "06"; "2E"; "2A AB E3 A6" ]

(* The worked example byte for byte: header, the record, container end. *)
let test_worked_example () =
  let want =
    hex_bytes
      (String.concat " "
         ([ "4A 54 52 43"; "02"; "00" ] @ worked_record @ [ "00 00" ]))
  in
  let got = encode_container ~name:"w" ~meta:(Obs.Json.Obj []) worked_events in
  Alcotest.(check int) "45 bytes" 45 (String.length got);
  Alcotest.(check string) "container bytes" (String.escaped want)
    (String.escaped got)

(* The same example as earlier version-2 writers wrote it, with the
   per-record index chunk (tag 0x04: one entry, "w" at relative offset
   0, 37 bytes, 6 events) after the header. The chunk is skipped like
   any unknown chunk: the record indexes at absolute offset 14 and
   replays the same six events. *)
let old_worked_example =
  hex_bytes
    (String.concat " "
       ([ "4A 54 52 43"; "02"; "00"; "04 06"; "01"; "01 77"; "00 25 06" ]
       @ worked_record @ [ "00 00" ]))

let test_old_worked_example () =
  Alcotest.(check int) "53 bytes" 53 (String.length old_worked_example);
  Alcotest.(check bool) "indexes past the index chunk" true
    (Trace_store.Index.of_string old_worked_example
    = [ { Trace_store.Index.name = "w"; offset = 14; bytes = 37; events = 6 } ]);
  let replayed bytes =
    let _, stats, got = decode_single bytes in
    (stats.R.events, got)
  in
  Alcotest.(check bool) "replays the same six events" true
    (replayed old_worked_example
     = replayed (encode_container ~name:"w" ~meta:(Obs.Json.Obj []) worked_events)
    && snd (replayed old_worked_example) = worked_events)

let test_unknown_chunk_skipped () =
  (* insert an unknown chunk kind (tag 0x7f) between the header and the
     first record: a reader must skip it by length (§7 forward
     compatibility), not reject the file *)
  let _, record = encode_record ~name:"x" [ E.Return { now = 3 } ] in
  let b = Buffer.create 256 in
  Buffer.add_string b container_header;
  Buffer.add_char b '\x7f';
  V.write_unsigned b 4;
  Buffer.add_string b "souq";
  Buffer.add_string b record;
  Buffer.add_string b "\x00\x00";
  let record, _, got = decode_single (Buffer.contents b) in
  Alcotest.(check string) "record survives" "x" record.R.name;
  Alcotest.(check bool) "payload survives" true (got = [ E.Return { now = 3 } ])

(* ---------------- replay work bounded by container size ---------------- *)

(* A well-formed 47-byte container whose one record declares 2^40 + 1
   events: a one-event reference segment (an eoi, Δnow = 1, Δstl = 0)
   repeated 2^40 times, with the matching final timestamp and checksum.
   Read without the events-per-byte cap it indexes at once and replays
   for hours. *)
let dense_container =
  let n = (1 lsl 40) + 1 in
  let seg = "\x02" ^ encode_s 1 ^ encode_s 0 in
  let payload =
    "\x0B" ^ encode_u (String.length seg) ^ seg ^ "\x00" ^ encode_u (n - 1)
  in
  let c =
    L.checksum L.checksum_init (Trace_store.Bytesrc.of_string payload) ~pos:0
      ~len:(String.length payload)
  in
  let frame tag p =
    String.make 1 (Char.chr tag) ^ encode_u (String.length p) ^ p
  in
  container_header
  ^ frame L.tag_record_begin "\x01w\x02{}"
  ^ frame L.tag_events payload
  ^ frame L.tag_record_end
      (encode_u n ^ encode_s n
      ^ String.init 4 (fun i -> Char.chr ((c lsr (8 * i)) land 0xff)))
  ^ "\x00\x00"

let test_dense_record_refused () =
  Alcotest.(check int) "47 bytes" 47 (String.length dense_container);
  let t0 = Unix.gettimeofday () in
  (match Trace_store.Index.of_string dense_container with
  | _ -> Alcotest.fail "a record over the events-per-byte cap must not index"
  | exception R.Corrupt msg ->
      Alcotest.(check bool) ("names the cap: " ^ msg) true
        (Test_scheduler.contains ~needle:"per byte" msg));
  expect_corrupt "replay" (fun () -> drain dense_container);
  Alcotest.(check bool) "refused at once" true
    (Unix.gettimeofday () -. t0 < 1.);
  let jrpm = "../bin/jrpm_cli.exe" in
  if Sys.file_exists jrpm then begin
    let path = Filename.temp_file "jrpm_dense" ".jtrc" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Trace_store.Atomic_io.write_string ~path dense_container;
        Alcotest.(check int) "jrpm trace info exits 1" 1
          (Sys.command
             (Printf.sprintf "%s trace info %s >/dev/null 2>&1" jrpm
                (Filename.quote path))))
  end

(* A loop whose iterations repeat byte for byte compresses past the
   cap; the writer pads its record up to it, and it reads back. *)
let test_dense_loop_padded () =
  let events = loop_events ~iters:20_000 ~body:1 in
  let _, record = encode_record events in
  let n = List.length events in
  let least = (n + L.max_events_per_byte - 1) / L.max_events_per_byte in
  Alcotest.(check bool)
    (Printf.sprintf "%d events padded to %d bytes (least %d)" n
       (String.length record) least)
    true
    (String.length record >= least && String.length record <= least + 1);
  let _, stats, got = decode_single (W.container [ record ]) in
  Alcotest.(check int) "every event replays" n stats.R.events;
  Alcotest.(check bool) "round-trips" true (List.for_all2 E.equal got events)

let test_replay_twice_rejected () =
  let r = R.of_string (encode_container [ E.Return { now = 1 } ]) in
  ignore (R.next_record r : R.record option);
  ignore (R.replay r Hydra.Trace.null_sink : R.replay_stats);
  Alcotest.(check bool) "second replay rejected" true
    (match R.replay r Hydra.Trace.null_sink with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_writer_finish_is_final () =
  let w = W.create () in
  let sink = W.sink w in
  E.apply sink (E.Return { now = 1 });
  ignore (W.finish ~name:"r" ~meta:Obs.Json.Null w : string);
  Alcotest.(check bool) "event after finish rejected" true
    (match E.apply sink (E.Return { now = 2 }) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------- tee + tracer tap ---------------- *)

let test_tee_orders_and_duplicates () =
  let log = ref [] in
  let mk tag = E.handler (fun e -> log := (tag, e) :: !log) in
  let sink = Hydra.Trace.tee (mk "a") (mk "b") in
  sink.Hydra.Trace.on_eoi ~stl:5 ~now:9;
  Alcotest.(check bool) "both sinks, first-then-second" true
    (List.rev !log
    = [ ("a", E.Eoi { stl = 5; now = 9 }); ("b", E.Eoi { stl = 5; now = 9 }) ])

let test_tracer_event_tap () =
  let events = loop_events ~iters:10 ~body:6 in
  let tracer = Test_core.Tracer.create () in
  let sink = Test_core.Tracer.sink tracer in
  List.iter (E.apply sink) events;
  Alcotest.(check int) "events_consumed counts every callback"
    (List.length events)
    (Test_core.Tracer.events_consumed tracer)

(* ---------------- record index + seek ---------------- *)

module I = Trace_store.Index

let three_records () =
  let _, r1 = encode_record ~name:"a" (loop_events ~iters:5 ~body:4) in
  let _, r2 = encode_record ~name:"b" [ E.Return { now = 1 } ] in
  let _, r3 = encode_record ~name:"c" (loop_events ~iters:3 ~body:2) in
  [ r1; r2; r3 ]

(* The layout of earlier version-2 writers: an index chunk (tag 0x04)
   between the header and the first record. Readers skip it by length
   whatever it holds, so a garbage payload stands in for a real one
   (the 53-byte worked example keeps a real one). *)
let with_index_chunk ?(payload = "\x03not an index") container =
  let h = String.length container_header in
  let b = Buffer.create (String.length container + 32) in
  Buffer.add_string b (String.sub container 0 h);
  Buffer.add_char b '\x04';
  V.write_unsigned b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_string b (String.sub container h (String.length container - h));
  Buffer.contents b

let shape entries =
  List.map (fun (e : I.entry) -> (e.I.name, e.I.bytes, e.I.events)) entries

let test_index_walk () =
  let records = three_records () in
  let container = W.container records in
  Alcotest.(check string) "header, records, end: no index chunk"
    (String.escaped (container_header ^ String.concat "" records ^ "\x00\x00"))
    (String.escaped container);
  let entries = I.of_string container in
  Alcotest.(check (list string))
    "container order" [ "a"; "b"; "c" ]
    (List.map (fun (e : I.entry) -> e.I.name) entries);
  Alcotest.(check (list int))
    "declared event counts" [ 25; 1; 9 ]
    (List.map (fun (e : I.entry) -> e.I.events) entries);
  (* every offset points at a record-begin tag and every length covers
     the record exactly *)
  List.iter2
    (fun (e : I.entry) record ->
      Alcotest.(check char)
        ("offset points at record begin: " ^ e.I.name)
        '\x01' container.[e.I.offset];
      Alcotest.(check string)
        ("entry spans the record bytes: " ^ e.I.name)
        record
        (String.sub container e.I.offset e.I.bytes))
    entries records;
  (* an earlier writer's index chunk only shifts the offsets *)
  let old = with_index_chunk container in
  let shift = String.length old - String.length container in
  Alcotest.(check bool) "index chunk skipped" true
    (I.of_string old
    = List.map (fun (e : I.entry) -> { e with I.offset = e.I.offset + shift })
        entries)

let test_seek_record_decodes_in_isolation () =
  let container = W.container (three_records ()) in
  let entries = I.of_string container in
  (* sequential decode of record c for reference *)
  let seq =
    let r = R.of_string container in
    ignore (R.next_record r : R.record option);
    ignore (R.replay r Hydra.Trace.null_sink : R.replay_stats);
    ignore (R.next_record r : R.record option);
    ignore (R.replay r Hydra.Trace.null_sink : R.replay_stats);
    ignore (R.next_record r : R.record option);
    let sink, events = E.collector () in
    ignore (R.replay r sink : R.replay_stats);
    events ()
  in
  let seek_decode name =
    let e = List.find (fun (e : I.entry) -> e.I.name = name) entries in
    let r = R.of_string container in
    let record = R.seek_record r ~offset:e.I.offset in
    Alcotest.(check string) "seek lands on the right record" name
      record.R.name;
    let sink, events = E.collector () in
    let stats = R.replay r sink in
    Alcotest.(check int)
      ("declared events match: " ^ name)
      e.I.events stats.R.events;
    events ()
  in
  Alcotest.(check bool) "seeked decode equals sequential decode" true
    (seek_decode "c" = seq);
  (* backward seek after reading forward *)
  let r = R.of_string container in
  let e3 = List.nth entries 2 and e1 = List.hd entries in
  ignore (R.seek_record r ~offset:e3.I.offset : R.record);
  ignore (R.replay r Hydra.Trace.null_sink : R.replay_stats);
  let back = R.seek_record r ~offset:e1.I.offset in
  Alcotest.(check string) "backward seek works" "a" back.R.name;
  (* a bogus offset is rejected, not misread *)
  expect_corrupt "seek into the middle of a chunk" (fun () ->
      R.seek_record (R.of_string container) ~offset:(e1.I.offset + 1))

(* ---------------- byte-source backends: string / bigstring / file ---- *)

module B = Trace_store.Bytesrc

(* the mapped backend without the filesystem: copy container bytes into
   a bigarray, exactly what Unix.map_file hands back *)
let big_of_string s =
  let b =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s)
  in
  String.iteri (fun i c -> Bigarray.Array1.set b i c) s;
  b

let both_backends container =
  [ ("string", B.of_string container);
    ("bigstring", B.of_bigstring (big_of_string container)) ]

let collect_record src ~offset =
  let r = R.of_src src in
  let record = R.seek_record r ~offset in
  let sink, events = E.collector () in
  let stats = R.replay r sink in
  (record.R.name, stats.R.events, events ())

(* Byte-merged container: records lifted out of two independently
   captured containers and concatenated into one (the §7 merge
   operation — records are self-contained, so a merge is a byte copy).
   Both backends must index it, seek any record, and decode exactly
   what the source captures held. *)
let test_merged_captures_both_backends () =
  let capture_a = W.container [ snd (encode_record ~name:"a1" (loop_events ~iters:4 ~body:3));
                                snd (encode_record ~name:"a2" [ E.Return { now = 5 } ]) ]
  and capture_b = W.container [ snd (encode_record ~name:"b1" (loop_events ~iters:2 ~body:5)) ] in
  let lift c = List.map (fun (e : I.entry) -> String.sub c e.I.offset e.I.bytes)
      (I.of_string c) in
  let merged = W.container (lift capture_a @ lift capture_b) in
  List.iter
    (fun (backend, src) ->
      let entries = I.of_src src in
      Alcotest.(check (list string))
        (backend ^ ": merged order is concatenation order")
        [ "a1"; "a2"; "b1" ]
        (List.map (fun (e : I.entry) -> e.I.name) entries);
      (* each merged record decodes byte-identically to its decode out
         of the original capture *)
      let from_original name =
        let find c =
          List.find_opt (fun (e : I.entry) -> e.I.name = name) (I.of_string c)
          |> Option.map (fun (e : I.entry) ->
                 collect_record (B.of_string c) ~offset:e.I.offset)
        in
        match (find capture_a, find capture_b) with
        | Some got, None | None, Some got -> got
        | _ -> Alcotest.fail ("record in neither capture: " ^ name)
      in
      List.iter
        (fun (e : I.entry) ->
          Alcotest.(check bool)
            (backend ^ ": merged decode = original decode: " ^ e.I.name)
            true
            (collect_record src ~offset:e.I.offset = from_original e.I.name))
        entries)
    (both_backends merged)

(* Entries agree across backends, and with an earlier writer's index
   chunk present; seek+replay agrees over both backends. *)
let test_index_backends_agree () =
  let records = three_records () in
  let current = W.container records in
  let reference = I.of_string current in
  List.iter
    (fun (backend, src) ->
      Alcotest.(check bool)
        (backend ^ ": index agrees with the string backend")
        true
        (I.of_src src = reference);
      List.iter
        (fun (e : I.entry) ->
          let name, events, got = collect_record src ~offset:e.I.offset in
          Alcotest.(check string) (backend ^ ": seek name") e.I.name name;
          Alcotest.(check int) (backend ^ ": seek events") e.I.events events;
          Alcotest.(check bool)
            (backend ^ ": decode agrees with string backend")
            true
            (got
            = (let _, _, ref_events =
                 collect_record (B.of_string current) ~offset:e.I.offset
               in
               ref_events)))
        reference)
    (both_backends current);
  List.iter
    (fun (backend, src) ->
      Alcotest.(check bool)
        (backend ^ ": index chunk layout has the same shape")
        true
        (shape (I.of_src src) = shape reference))
    (both_backends (with_index_chunk current))

let with_temp_container bytes f =
  let path = Filename.temp_file "jrpm_test" ".jtrc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc bytes);
      f path)

(* Indexing a file is [Index.of_src] over its mapping: it must agree
   exactly with the in-memory parse, with and without an earlier
   writer's index chunk; a corrupt file must raise through the same
   path; and the reader over the mapping must decode a real file
   identically to the string backend. *)
let index_file path = I.of_src (B.map_file path)

let test_mapped_file_index_and_reader () =
  let records = three_records () in
  let indexed = W.container records in
  let old = with_index_chunk indexed in
  with_temp_container indexed (fun path ->
      Alcotest.(check bool)
        "mapped index = of_string (indexed)" true
        (index_file path = I.of_string indexed);
      let e = List.hd (index_file path) in
      let mapped = B.map_file path in
      Alcotest.(check int) "mapping covers the file" (String.length indexed)
        (B.length mapped);
      Alcotest.(check bool)
        "mapped decode = string decode" true
        (collect_record mapped ~offset:e.I.offset
        = collect_record (B.of_string indexed) ~offset:e.I.offset);
      (* a reader over the mapping drains the whole container like
         one over the in-memory bytes *)
      let drain r =
        let rec go acc =
          match R.next_record r with
          | None -> List.rev acc
          | Some record ->
              let sink, events = E.collector () in
              ignore (R.replay r sink : R.replay_stats);
              go ((record.R.name, events ()) :: acc)
        in
        go []
      in
      Alcotest.(check bool)
        "mapped drain = string drain" true
        (drain (R.of_src mapped) = drain (R.of_string indexed)));
  with_temp_container old (fun path ->
      Alcotest.(check bool)
        "mapped index = of_string (index chunk skipped)" true
        (index_file path = I.of_string old));
  (* a record cut short on disk: its end chunk is missing *)
  with_temp_container
    (String.sub indexed 0 (String.length indexed - 4) ^ "\x00\x00")
    (fun path ->
      expect_corrupt "record cut short on disk" (fun () -> index_file path))

(* ---------------- on-disk robustness: truncation, special files,
   atomic writes ---------------- *)

let with_temp_file ?(suffix = ".jtrc") f =
  let path = Filename.temp_file "jrpm_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let rec drain_reader rd =
  match R.next_record rd with
  | None -> ()
  | Some _ ->
      ignore (R.replay rd Hydra.Trace.null_sink : R.replay_stats);
      drain_reader rd

(* A container cut short on disk — a capture that died before its
   atomic rename, read through a non-atomic writer's leftovers — must
   surface as a clean Corrupt from the reader over its mapping, at any
   cut point, never as a decode of garbage or an unhandled exception. *)
let test_truncated_file_every_cut () =
  let good =
    W.container
      [
        snd (encode_record ~name:"a" (loop_events ~iters:6 ~body:4));
        snd (encode_record ~name:"b" (loop_events ~iters:3 ~body:2));
      ]
  in
  with_temp_file (fun path ->
      List.iter
        (fun keep ->
          write_file path (String.sub good 0 keep);
          expect_corrupt
            (Printf.sprintf "truncated to %d bytes" keep)
            (fun () -> drain_reader (R.of_src (B.map_file path))))
        [ 0; 5; 8; 20; String.length good / 3; String.length good - 1 ])

(* map_file on things that are not regular trace files: empty files
   degrade to the read-whole-file fallback (and fail later as an empty
   container), while directories, missing paths, and special files
   raise Corrupt naming the path — never a bare Unix_error/Sys_error. *)
let test_map_file_special_paths () =
  let expect_corrupt_naming what path f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected Reader.Corrupt")
    | exception R.Corrupt msg ->
        Alcotest.(check bool)
          (what ^ " names the path: " ^ msg)
          true
          (let len_p = String.length path and len_m = String.length msg in
           len_m >= len_p && String.sub msg 0 len_p = path)
  in
  (* empty regular file: mapping falls back to a whole-file read, and
     the empty container is diagnosed by the reader, not the mapper *)
  with_temp_file (fun path ->
      write_file path "";
      let src = B.map_file path in
      Alcotest.(check int) "empty file maps to 0 bytes" 0 (B.length src);
      expect_corrupt "empty container" (fun () ->
          drain_reader (R.of_src src)));
  (* directory *)
  let dir = Filename.temp_file "jrpm_test" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      expect_corrupt_naming "directory" dir (fun () -> B.map_file dir));
  (* missing path *)
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "jrpm_enoent" in
  expect_corrupt_naming "missing file" missing (fun () -> B.map_file missing);
  (* FIFO: stat says it is not a regular file *)
  let fifo = Filename.temp_file "jrpm_test" ".fifo" in
  Sys.remove fifo;
  match Unix.mkfifo fifo 0o600 with
  | () ->
      Fun.protect
        ~finally:(fun () -> try Sys.remove fifo with Sys_error _ -> ())
        (fun () ->
          expect_corrupt_naming "fifo" fifo (fun () -> B.map_file fifo))
  | exception Unix.Unix_error _ -> () (* no fifos on this filesystem *)

(* Atomic container writes: a crash (raising writer callback) must
   leave a pre-existing target byte-identical and no .tmp litter; the
   success path must land the full bytes under the final name. *)
let test_atomic_io () =
  let module A = Trace_store.Atomic_io in
  with_temp_file (fun path ->
      write_file path "precious";
      (match A.write ~path (fun _oc -> failwith "boom") with
      | () -> Alcotest.fail "raising writer callback must propagate"
      | exception Failure msg ->
          Alcotest.(check string) "callback error propagates" "boom" msg);
      let ic = open_in_bin path in
      let kept = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "target intact after failed write" "precious"
        kept;
      Alcotest.(check bool) "no .tmp litter after failed write" false
        (Sys.file_exists (A.tmp_path path));
      A.write_string ~path "fresh bytes";
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "rename landed the new bytes" "fresh bytes" got;
      Alcotest.(check bool) "no .tmp litter after success" false
        (Sys.file_exists (A.tmp_path path)));
  (* Writer.to_file is the atomic capture path: the result must load *)
  with_temp_file (fun path ->
      W.to_file ~path
        [ snd (encode_record ~name:"atomic" (loop_events ~iters:2 ~body:3)) ];
      let entries = index_file path in
      Alcotest.(check (list string))
        "to_file container loads" [ "atomic" ]
        (List.map (fun (e : I.entry) -> e.I.name) entries))

(* ---------------- hostile containers ---------------- *)

(* Containers from the codec generator: one to three records, each a
   random event stream or a loop-shaped one (framed segments and
   repeats). *)
let gen_container =
  QCheck.Gen.(
    let record =
      oneofl [ "a"; "bb"; "workload" ] >>= fun name ->
      small_nat >>= fun k ->
      frequency
        [
          (1, list_size (int_range 0 40) gen_event);
          ( 2,
            int_range 1 12 >>= fun iters ->
            int_range 1 4 >|= fun body -> loop_events ~iters ~body );
        ]
      >|= fun events ->
      snd (encode_record ~name ~meta:(Obs.Json.Obj [ ("k", Obs.Json.Int k) ]) events)
    in
    list_size (int_range 1 3) record >|= W.container)

(* The chunk frames of a well-formed container, after its header:
   (frame start, tag, payload start, payload length). *)
let frames s =
  let src = B.of_string s and limit = String.length s in
  let rec go pos acc =
    if pos >= limit then List.rev acc
    else begin
      let p = ref (pos + 1) in
      let len = V.read_unsigned_src src ~limit p in
      go (!p + len) ((pos, Char.code s.[pos], !p, len) :: acc)
    end
  in
  go (String.length container_header) []

let cut s i j = String.sub s i (j - i)

(* [v] as a LEB128 varint [extra] groups longer than it needs: still
   [v] to a decoder. *)
let padded_varint v ~extra =
  let b = Bytes.of_string (encode_u v) in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lor 0x80));
  Bytes.to_string b ^ String.make (extra - 1) '\x80' ^ "\x00"

(* ten groups: more than a native int holds *)
let overflowing_varint = String.make 9 '\x80' ^ "\x01"

(* Frame [f] of [s] with its length encoded as [len_bytes]. *)
let with_length s (pos, tag, poff, _) len_bytes =
  cut s 0 pos ^ String.make 1 (Char.chr tag) ^ len_bytes
  ^ cut s poff (String.length s)

(* The record-end frame [f] of [s] with its event count encoded as
   [count_bytes]. *)
let with_count s (pos, tag, poff, len) count_bytes =
  let p = ref poff in
  ignore (V.read_unsigned_src (B.of_string s) ~limit:(poff + len) p : int);
  let payload = count_bytes ^ cut s !p (poff + len) in
  cut s 0 pos ^ String.make 1 (Char.chr tag)
  ^ encode_u (String.length payload)
  ^ payload
  ^ cut s (poff + len) (String.length s)

let insert_chunk s at tag payload =
  cut s 0 at ^ String.make 1 (Char.chr tag)
  ^ encode_u (String.length payload)
  ^ payload
  ^ cut s at (String.length s)

type mutation =
  | Flip of int * int  (** byte index, xor mask *)
  | Splice of int * int  (** this container's prefix, the other's suffix *)
  | Swap_records  (** the records in reverse order *)
  | Pad_length of int * int  (** frame, extra groups *)
  | Overflow_length of int  (** frame *)
  | Pad_count of int * int  (** record-end frame, extra groups *)
  | Overflow_count of int  (** record-end frame *)
  | Dangling_repeat of int  (** record: an [op_repeat] opens it *)
  | Index_chunk of int * string  (** frame boundary, garbage payload *)

let pp_mutation = function
  | Flip (i, m) -> Printf.sprintf "flip byte %d ^ 0x%02x" i m
  | Splice (i, j) -> Printf.sprintf "splice at %d / %d" i j
  | Swap_records -> "records reversed"
  | Pad_length (f, k) -> Printf.sprintf "frame %d length +%d groups" f k
  | Overflow_length f -> Printf.sprintf "frame %d length overflows" f
  | Pad_count (f, k) -> Printf.sprintf "end frame %d count +%d groups" f k
  | Overflow_count f -> Printf.sprintf "end frame %d count overflows" f
  | Dangling_repeat r -> Printf.sprintf "record %d opens with op_repeat" r
  | Index_chunk (f, p) -> Printf.sprintf "index chunk before frame %d: %S" f p

let gen_mutation =
  QCheck.Gen.(
    let pick = int_bound 1_000_000 in
    frequency
      [
        (4, map2 (fun i m -> Flip (i, m)) pick (int_range 1 255));
        (2, map2 (fun i j -> Splice (i, j)) pick pick);
        (1, return Swap_records);
        (1, map2 (fun f k -> Pad_length (f, k)) pick (int_range 1 3));
        (1, map (fun f -> Overflow_length f) pick);
        (1, map2 (fun f k -> Pad_count (f, k)) pick (int_range 1 3));
        (1, map (fun f -> Overflow_count f) pick);
        (1, map (fun r -> Dangling_repeat r) pick);
        ( 1,
          map2 (fun f p -> Index_chunk (f, p)) pick
            (string_size ~gen:char (int_range 0 12)) );
      ])

(* The mutated bytes, and whether the mutation keeps the container
   well-formed: then it must read back as the original does (records
   reversed for [Swap_records]). *)
let mutate s other m =
  let n = String.length s in
  let fs = Array.of_list (frames s) in
  let nth_frame k = fs.(k mod Array.length fs) in
  let tagged t =
    Array.of_list
      (List.filter (fun (_, tag, _, _) -> tag = t) (Array.to_list fs))
  in
  let begins = tagged L.tag_record_begin and ends = tagged L.tag_record_end in
  match m with
  | Flip (i, mask) ->
      let b = Bytes.of_string s in
      let i = i mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
      (Bytes.to_string b, false)
  | Splice (i, j) ->
      let j = j mod String.length other in
      (cut s 0 (i mod n) ^ cut other j (String.length other), false)
  | Swap_records ->
      let records =
        List.map
          (fun (e : I.entry) -> String.sub s e.I.offset e.I.bytes)
          (I.of_string s)
      in
      (W.container (List.rev records), true)
  | Pad_length (k, extra) ->
      let (_, _, _, len) as f = nth_frame k in
      (with_length s f (padded_varint len ~extra), true)
  | Overflow_length k -> (with_length s (nth_frame k) overflowing_varint, false)
  | Pad_count (k, extra) ->
      let ((_, _, poff, len) as f) = ends.(k mod Array.length ends) in
      let count =
        V.read_unsigned_src (B.of_string s) ~limit:(poff + len) (ref poff)
      in
      (with_count s f (padded_varint count ~extra), true)
  | Overflow_count k ->
      (with_count s ends.(k mod Array.length ends) overflowing_varint, false)
  | Dangling_repeat r ->
      let _, _, poff, len = begins.(r mod Array.length begins) in
      (insert_chunk s (poff + len) L.tag_events "\x00\x03", false)
  | Index_chunk (k, payload) ->
      let pos, _, _, _ = nth_frame k in
      (insert_chunk s pos 0x04 payload, true)

(* Far more events than a generated container holds: a replay that
   runs past it has let a few mutated bytes expand without bound. *)
let max_replayed = 10_000

(* What a reader makes of a container: its index, and each record's
   events through a full drain — or [Corrupt]. Any other exception
   escapes and fails the property. *)
let read_back s =
  let index =
    match I.of_string s with
    | entries -> Ok (List.map (fun (e : I.entry) -> (e.I.name, e.I.events)) entries)
    | exception R.Corrupt _ -> Error ()
  in
  let records =
    match
      let r = R.of_string s in
      let rec go acc =
        match R.next_record r with
        | None -> List.rev acc
        | Some record ->
            let events = ref [] and n = ref 0 in
            let sink =
              E.handler (fun e ->
                  incr n;
                  if !n > max_replayed then
                    QCheck.Test.fail_reportf "replay ran past %d events"
                      max_replayed;
                  events := e :: !events)
            in
            ignore (R.replay r sink : R.replay_stats);
            go ((record.R.name, List.rev !events) :: acc)
      in
      go []
    with
    | records -> Ok records
    | exception R.Corrupt _ -> Error ()
  in
  (index, records)

(* Allocation bound for indexing plus a null-sink drain: at most
   [alloc_per_byte] words per container byte, plus a fixed allowance
   for the reader, the exception message and the measurement itself. *)
let alloc_per_byte = 8.
let alloc_fixed = 4096.

(* Words allocated by indexing and draining [s], minor and major. A
   minor collection on each side flushes the major heap's counters,
   which otherwise lag direct major allocations. *)
let alloc_words s =
  Gc.minor ();
  let q0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  (try ignore (I.of_string s : I.entry list) with R.Corrupt _ -> ());
  (try drain s with R.Corrupt _ -> ());
  let m1 = Gc.minor_words () in
  Gc.minor ();
  let q1 = Gc.quick_stat () in
  m1 -. m0
  +. (q1.Gc.major_words -. q0.Gc.major_words)
  -. (q1.Gc.promoted_words -. q0.Gc.promoted_words)

let prop_hostile_containers =
  QCheck.Test.make ~name:"hostile containers: Corrupt only, bounded allocation"
    ~count:300
    (QCheck.make
       ~print:(fun (s, _, ms) ->
         Printf.sprintf "%d-byte container %S; %s" (String.length s) s
           (String.concat ", " (List.map pp_mutation ms)))
       QCheck.Gen.(
         triple gen_container gen_container
           (list_size (int_range 1 4) gen_mutation)))
    (fun (s, other, ms) ->
      let original = read_back s in
      (* a strict prefix is never a container *)
      for keep = 0 to String.length s - 1 do
        if read_back (String.sub s 0 keep) <> (Error (), Error ()) then
          QCheck.Test.fail_reportf "prefix of %d bytes was accepted" keep
      done;
      List.for_all
        (fun m ->
          let mutated, keeps_form = mutate s other m in
          let got = read_back mutated in
          let expected =
            if m <> Swap_records then original
            else
              let index, records = original in
              (Result.map List.rev index, Result.map List.rev records)
          in
          if keeps_form && got <> expected then
            QCheck.Test.fail_reportf "%s changed what reads back" (pp_mutation m);
          let words = alloc_words mutated in
          let bound =
            (alloc_per_byte *. float_of_int (String.length mutated))
            +. alloc_fixed
          in
          if words > bound then
            QCheck.Test.fail_reportf "%s: %.0f words allocated, bound %.0f"
              (pp_mutation m) words bound;
          true)
        ms)

(* ---------------- replay hot path ---------------- *)

(* A record with every framing the replay loop meets: distinct
   iterations framed as [op_seg], constant-stride runs collapsed into
   [op_repeat], and enough of both to span several events chunks. *)
let framed_stream ~iters =
  let now = ref 0 and addr = ref 0 in
  let iteration stride =
    addr := !addr + stride;
    now := !now + 3;
    [ E.Heap_load { addr = !addr; pc = 100; now = !now };
      E.Heap_store { addr = !addr + 8; now = !now + 1 };
      E.Eoi { stl = 1; now = !now + 2 } ]
  in
  List.concat
    (List.init iters (fun i ->
         if i mod 16 = 0 then List.concat (List.init 8 (fun _ -> iteration 64))
         else iteration (8 * (1 + (i * i mod 97)))))

(* Replaying into the null sink allocates nothing per event: no
   closure per framing varint, no position ref per segment. *)
let test_replay_allocation_free () =
  let container = encode_container ~name:"hot" (framed_stream ~iters:40_000) in
  Alcotest.(check bool) "several events chunks" true
    (List.length (events_payloads container) >= 2);
  let r = R.of_string container in
  ignore (R.next_record r : R.record option);
  let before = Gc.minor_words () in
  let stats = R.replay r Hydra.Trace.null_sink in
  let words = (Gc.minor_words () -. before) /. float_of_int stats.R.events in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words/event over %d events within 0.01" words
       stats.R.events)
    true (words <= 0.01)

(* ---------------- replay determinism vs the golden sweep ---------------- *)

(* The same subset test_sweep checks against the sweep pin: capture
   each workload, then check the REPLAYED summaries against the same
   pinned bytes — interpretation and replay must agree exactly. *)
let test_replayed_sweep_matches_golden () =
  let workloads =
    List.map Workloads.Registry.find_exn Test_sweep.golden_subset
  in
  let outcomes =
    Jrpm.Daemon.sweep ~jobs:1 ~capture:true workloads
  in
  let container =
    match Jrpm.Daemon.container outcomes with
    | Some c -> c
    | None -> Alcotest.fail "capture sweep produced no container"
  in
  let replayed =
    let src = Trace_store.Bytesrc.of_string container in
    List.map (Jrpm.Replay.replay_entry ~src) (Trace_store.Index.of_src src)
  in
  Alcotest.(check int) "record per workload" (List.length workloads)
    (List.length replayed);
  List.iter
    (fun (o : Jrpm.Replay.outcome) ->
      Alcotest.(check bool)
        ("replay matches interpretation: " ^ o.Jrpm.Replay.name)
        true o.Jrpm.Replay.matches;
      Alcotest.(check string)
        ("replayed summary JSON matches golden: " ^ o.Jrpm.Replay.name)
        (Test_sweep.pinned_json o.Jrpm.Replay.name)
        (Obs.Json.to_string (Jrpm.Report_summary.to_json o.Jrpm.Replay.replayed)))
    replayed

let suites =
  [
    ( "trace_store.varint",
      [
        Alcotest.test_case "known encodings" `Quick test_varint_encodings;
        Alcotest.test_case "extreme values" `Quick test_varint_extremes;
        QCheck_alcotest.to_alcotest prop_varint_roundtrip;
      ] );
    ( "trace_store.codec",
      [
        QCheck_alcotest.to_alcotest prop_events_roundtrip;
        Alcotest.test_case "RLE collapses repeated loop bodies" `Quick
          test_rle_compresses_loops;
        Alcotest.test_case "record name and metadata" `Quick
          test_record_identity;
        Alcotest.test_case "multi-record container, skip unconsumed" `Quick
          test_multi_record_and_skip;
        Alcotest.test_case "empty record" `Quick test_empty_record;
      ] );
    ( "trace_store.errors",
      [
        Alcotest.test_case "corrupt and truncated inputs" `Quick
          test_corrupt_inputs;
        Alcotest.test_case "unknown chunk kinds are skipped" `Quick
          test_unknown_chunk_skipped;
        Alcotest.test_case "replay twice rejected" `Quick
          test_replay_twice_rejected;
        Alcotest.test_case "writer finish is final" `Quick
          test_writer_finish_is_final;
        Alcotest.test_case "every events-payload byte flip is caught" `Quick
          test_every_payload_byte_flip;
        Alcotest.test_case "version-1 container refused" `Quick
          test_v1_refused;
        QCheck_alcotest.to_alcotest prop_hostile_containers;
        Alcotest.test_case "record over the events-per-byte cap refused"
          `Quick test_dense_record_refused;
        Alcotest.test_case "dense loop record padded to the cap" `Quick
          test_dense_loop_padded;
      ] );
    ( "trace_store.checksum",
      [
        Alcotest.test_case "word-at-a-time rule, both backends" `Quick
          test_checksum_rule;
        Alcotest.test_case "ARCHITECTURE.md worked example" `Quick
          test_worked_example;
      ] );
    ( "trace_store.wiring",
      [
        Alcotest.test_case "tee duplicates in order" `Quick
          test_tee_orders_and_duplicates;
        Alcotest.test_case "tracer event tap" `Quick test_tracer_event_tap;
      ] );
    ( "trace_store.index",
      [
        Alcotest.test_case "index walk: offsets, spans, counts" `Quick
          test_index_walk;
        Alcotest.test_case "seek_record decodes in isolation" `Quick
          test_seek_record_decodes_in_isolation;
        Alcotest.test_case "old worked example: index chunk skipped" `Quick
          test_old_worked_example;
      ] );
    ( "trace_store.bytesrc",
      [
        Alcotest.test_case "byte-merged captures over both backends" `Quick
          test_merged_captures_both_backends;
        Alcotest.test_case "index agrees across backends and layouts" `Quick
          test_index_backends_agree;
        Alcotest.test_case "mapped file index and reader" `Quick
          test_mapped_file_index_and_reader;
      ] );
    ( "trace_store.files",
      [
        Alcotest.test_case "truncated file is Corrupt on every cut" `Quick
          test_truncated_file_every_cut;
        Alcotest.test_case "map_file on empty/dir/missing/fifo" `Quick
          test_map_file_special_paths;
        Alcotest.test_case "atomic writes survive a crashing writer" `Quick
          test_atomic_io;
      ] );
    ( "trace_store.hot_path",
      [
        Alcotest.test_case "replay into the null sink allocation-free" `Quick
          test_replay_allocation_free;
      ] );
    ( "trace_store.replay",
      [
        Alcotest.test_case "replayed sweep matches interpreted golden" `Quick
          test_replayed_sweep_matches_golden;
      ] );
  ]
