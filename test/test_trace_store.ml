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
        (V.read_signed s (ref 0));
      Alcotest.(check bool) "at most 9 bytes" true (String.length s <= 9))
    [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 40 ];
  List.iter
    (fun n ->
      let s = encode_u n in
      Alcotest.(check int)
        (Printf.sprintf "unsigned round-trip %d" n)
        n
        (V.read_unsigned s (ref 0)))
    [ 0; 1; 127; 128; 16384; max_int ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint signed round-trip on arbitrary ints"
    ~count:500
    QCheck.(frequency [ (4, small_signed_int); (1, int) ])
    (fun n -> V.read_signed (encode_s n) (ref 0) = n)

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
    let len = V.read_unsigned s pos in
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

(* ARCHITECTURE.md §7's worked example, byte for byte. *)
let test_worked_example () =
  let events =
    E.Sloop { stl = 2; nlocals = 1; frame = 0; now = 5 }
    :: List.map (fun now -> E.Eoi { stl = 2; now }) [ 9; 13; 17; 21 ]
    @ [ E.Eloop { stl = 2; now = 23 } ]
  in
  let want =
    hex_bytes
      (String.concat " "
         [ "4A 54 52 43"; "02"; "00";
           "04 06"; "01"; "01 77"; "00 25 06";
           "01 05"; "01 77"; "02 7B 7D";
           "02 14"; "0B 08"; "01 0A 04 02 00"; "02 08 04";
             "0B 03"; "02 08 00"; "00 02"; "03 04 04";
           "03 06"; "06"; "2E"; "2A AB E3 A6";
           "00 00" ])
  in
  let got = encode_container ~name:"w" ~meta:(Obs.Json.Obj []) events in
  Alcotest.(check int) "53 bytes" 53 (String.length got);
  Alcotest.(check string) "container bytes" (String.escaped want)
    (String.escaped got)

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

(* a container in the pre-index layout: header, records, end — what
   every writer produced before the index chunk existed *)
let legacy_container records =
  let b = Buffer.create 1024 in
  Buffer.add_string b container_header;
  List.iter (Buffer.add_string b) records;
  Buffer.add_string b "\x00\x00";
  Buffer.contents b

let shape entries =
  List.map (fun (e : I.entry) -> (e.I.name, e.I.bytes, e.I.events)) entries

let test_index_embedded_and_scan_agree () =
  let records = three_records () in
  let embedded = W.container records in
  let legacy = legacy_container records in
  (* the embedded chunk and a frame scan of the same container agree
     exactly; the legacy container differs only by the offset shift the
     index chunk itself introduces *)
  let from_chunk = I.of_string embedded in
  Alcotest.(check bool) "embedded index = scan of same bytes" true
    (from_chunk = I.scan_string embedded);
  Alcotest.(check bool) "legacy scan has the same shape" true
    (shape from_chunk = shape (I.of_string legacy));
  Alcotest.(check (list string))
    "container order" [ "a"; "b"; "c" ]
    (List.map (fun (e : I.entry) -> e.I.name) from_chunk);
  Alcotest.(check (list int))
    "declared event counts" [ 25; 1; 9 ]
    (List.map (fun (e : I.entry) -> e.I.events) from_chunk);
  (* every offset points at a record-begin tag and every length covers
     the record exactly *)
  List.iter2
    (fun (e : I.entry) record ->
      Alcotest.(check char)
        ("offset points at record begin: " ^ e.I.name)
        '\x01' embedded.[e.I.offset];
      Alcotest.(check string)
        ("entry spans the record bytes: " ^ e.I.name)
        record
        (String.sub embedded e.I.offset e.I.bytes))
    from_chunk records

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

let test_lying_index_rejected () =
  (* hand-build a container whose index chunk points one byte past the
     real record: of_string must detect the lie and raise, not shard on
     garbage offsets *)
  let _, record = encode_record ~name:"x" [ E.Return { now = 3 } ] in
  let entry = { I.name = "x"; offset = 1; bytes = String.length record; events = 1 } in
  let payload = I.chunk_payload [ entry ] in
  let b = Buffer.create 256 in
  Buffer.add_string b container_header;
  Buffer.add_char b '\x04';
  V.write_unsigned b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_string b record;
  Buffer.add_string b "\x00\x00";
  expect_corrupt "lying index offset" (fun () ->
      I.of_string (Buffer.contents b));
  (* a truncated index payload is also rejected *)
  let b2 = Buffer.create 256 in
  Buffer.add_string b2 container_header;
  Buffer.add_char b2 '\x04';
  V.write_unsigned b2 2;
  Buffer.add_string b2 (String.sub payload 0 2);
  Buffer.add_string b2 record;
  Buffer.add_string b2 "\x00\x00";
  expect_corrupt "truncated index payload" (fun () ->
      I.of_string (Buffer.contents b2))

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
   The merged file has no index chunk; both backends must scan it,
   seek any record, and decode exactly what the source captures held. *)
let test_merged_captures_both_backends () =
  let capture_a = W.container [ snd (encode_record ~name:"a1" (loop_events ~iters:4 ~body:3));
                                snd (encode_record ~name:"a2" [ E.Return { now = 5 } ]) ]
  and capture_b = W.container [ snd (encode_record ~name:"b1" (loop_events ~iters:2 ~body:5)) ] in
  let lift c = List.map (fun (e : I.entry) -> String.sub c e.I.offset e.I.bytes)
      (I.of_string c) in
  let merged = legacy_container (lift capture_a @ lift capture_b) in
  List.iter
    (fun (backend, src) ->
      Alcotest.(check bool)
        (backend ^ ": merged container has no index chunk")
        true
        (I.embedded_chunk_size src = None);
      let entries = I.of_src src in
      Alcotest.(check (list string))
        (backend ^ ": merged order is concatenation order")
        [ "a1"; "a2"; "b1" ]
        (List.map (fun (e : I.entry) -> e.I.name) entries);
      Alcotest.(check bool)
        (backend ^ ": scan agrees with of_src")
        true
        (entries = I.scan_src src);
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

(* A legacy (pre-index-chunk) container with the index chunk present in
   a sibling: entry shapes agree across layouts and across backends,
   and seek+replay out of the indexed container matches over both. *)
let test_index_backends_agree () =
  let records = three_records () in
  let indexed = W.container records in
  let legacy = legacy_container records in
  let reference = I.of_string indexed in
  List.iter
    (fun (backend, src) ->
      Alcotest.(check bool)
        (backend ^ ": embedded index parses identically")
        true
        (I.of_src src = reference);
      Alcotest.(check bool)
        (backend ^ ": index chunk size agrees")
        true
        (I.embedded_chunk_size src <> None);
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
                 collect_record (B.of_string indexed) ~offset:e.I.offset
               in
               ref_events)))
        reference)
    (both_backends indexed);
  List.iter
    (fun (backend, src) ->
      Alcotest.(check bool)
        (backend ^ ": legacy scan shape matches indexed")
        true
        (shape (I.of_src src) = shape reference))
    (both_backends legacy)

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
   exactly with the in-memory parse, on both the indexed and the legacy
   layout; a lying on-disk index must raise through the same path; and
   the reader over the mapping must decode a real file identically to
   the string backend. *)
let index_file path = I.of_src (B.map_file path)

let test_mapped_file_index_and_reader () =
  let records = three_records () in
  let indexed = W.container records in
  let legacy = legacy_container records in
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
  with_temp_container legacy (fun path ->
      Alcotest.(check bool)
        "mapped index = of_string (legacy, scan fallback)" true
        (index_file path = I.of_string legacy));
  (* lying index on disk: offset points one byte past the record *)
  let _, record = encode_record ~name:"x" [ E.Return { now = 3 } ] in
  let entry =
    { I.name = "x"; offset = 1; bytes = String.length record; events = 1 }
  in
  let payload = I.chunk_payload [ entry ] in
  let b = Buffer.create 256 in
  Buffer.add_string b container_header;
  Buffer.add_char b '\x04';
  V.write_unsigned b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_string b record;
  Buffer.add_string b "\x00\x00";
  with_temp_container (Buffer.contents b) (fun path ->
      expect_corrupt "lying on-disk index" (fun () -> index_file path))

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

(* ---------------- replay determinism vs the golden sweep ---------------- *)

(* The same subset test_sweep checks against the sweep pin: capture
   each workload, then check the REPLAYED summaries against the same
   pinned bytes — interpretation and replay must agree exactly. *)
let test_replayed_sweep_matches_golden () =
  let workloads =
    List.map Workloads.Registry.find_exn Test_sweep.golden_subset
  in
  let outcomes =
    Jrpm.Parallel_sweep.run ~jobs:1 ~workloads ~capture:true ()
  in
  let container =
    match Jrpm.Parallel_sweep.container outcomes with
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
        Alcotest.test_case "embedded index, scan, and legacy agree" `Quick
          test_index_embedded_and_scan_agree;
        Alcotest.test_case "seek_record decodes in isolation" `Quick
          test_seek_record_decodes_in_isolation;
        Alcotest.test_case "lying or truncated index rejected" `Quick
          test_lying_index_rejected;
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
    ( "trace_store.replay",
      [
        Alcotest.test_case "replayed sweep matches interpreted golden" `Quick
          test_replayed_sweep_matches_golden;
      ] );
  ]
