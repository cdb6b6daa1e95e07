(* Rebinding, not a fresh exception: [Bytesrc.map_file] raises the
   same constructor for unreadable paths, so one catch site covers
   both mapping and decode failures. *)
exception Corrupt = Corrupt.Corrupt

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type record = { name : string; meta : Obs.Json.t }
type replay_stats = { events : int; record_bytes : int }

(* A reader decodes *in place* over a byte source — container bytes
   already in memory, or a read-only file mapping shared with forked
   decoder workers. It never copies an event chunk: payloads are
   decoded and checksummed at their container offsets, and the RLE
   reference segment is an (offset, len) span into the source instead
   of a copied string. *)

type cursor = Header_done | In_record | Record_done | Container_done

type t = {
  src : Bytesrc.t;
  mutable off : int;  (* bytes consumed so far, container start = 0 *)
  mutable cursor : cursor;
  state : Layout.state;
  (* reference segment for op_repeat, as a span into [seg_src];
     seg_len = 0 means none is set (framed segments are never empty) *)
  mutable seg_src : Bytesrc.t;
  mutable seg_off : int;
  mutable seg_len : int;
  mutable record_start : int;
  mutable events : int;
  mutable checksum : int;
}

(* sanity bounds against absurd corrupt lengths/counts: no legitimate
   writer output comes near them *)
let max_chunk = 1 lsl 30
let max_repeat = 1 lsl 40

(* ---------------- byte source ---------------- *)

let read_byte_opt t =
  if t.off >= Bytesrc.length t.src then None
  else begin
    let v = Char.code (Bytesrc.unsafe_get t.src t.off) in
    t.off <- t.off + 1;
    Some v
  end

let read_byte t what =
  match read_byte_opt t with
  | Some b -> b
  | None -> corrupt "truncated container (EOF in %s)" what

(* Skip [n] payload bytes without materializing them — skipping a
   record is free on a mapping. *)
let skip_exact t n what =
  if n > max_chunk then corrupt "%s length %d is implausible" what n;
  if t.off + n > Bytesrc.length t.src then
    corrupt "truncated container (EOF in %s)" what
  else t.off <- t.off + n

let read_exact t n what =
  let pos = t.off in
  skip_exact t n what;
  Bytesrc.sub_string t.src ~pos ~len:n

let read_uvarint t what =
  let rec go acc shift =
    if shift > 56 then corrupt "varint too long in %s" what;
    let b = read_byte t what in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  let v = go 0 0 in
  if v < 0 then corrupt "varint overflow in %s" what;
  v

(* in-payload varints: bounds/overflow failures are corruption, and the
   narrow handlers here must not catch anything a sink callback raises *)
let rd_signed b ~limit pos =
  try Varint.read_signed_src b ~limit pos with
  | Varint.Overflow -> corrupt "varint overflow in event payload"
  | Invalid_argument _ -> corrupt "truncated varint in event payload"

let rd_unsigned b ~limit pos =
  try Varint.read_unsigned_src b ~limit pos with
  | Varint.Overflow -> corrupt "varint overflow in event payload"
  | Invalid_argument _ -> corrupt "truncated varint in event payload"

(* ---------------- open ---------------- *)

let init src =
  let t =
    {
      src;
      off = 0;
      cursor = Header_done;
      state = Layout.create_state ();
      seg_src = Bytesrc.Str "";
      seg_off = 0;
      seg_len = 0;
      record_start = 0;
      events = 0;
      checksum = Layout.checksum_init;
    }
  in
  let magic = read_exact t (String.length Layout.magic) "magic" in
  if not (String.equal magic Layout.magic) then
    corrupt "bad magic %S (not a trace container)" magic;
  let v = read_byte t "version" in
  if v <> Layout.version then
    corrupt "unsupported trace format version %d (this reader speaks %d)" v
      Layout.version;
  let ext = read_uvarint t "header extension" in
  skip_exact t ext "header extension";
  t

let of_src = init
let of_string s = of_src (Bytesrc.Str s)
let of_bigstring b = of_src (Bytesrc.Big b)

(* ---------------- event decoding ---------------- *)

(* Hot-path zigzag varint over the byte source. Bounds are checked
   against [limit] explicitly ([Bytesrc.unsafe_get] after the check),
   and failures raise Corrupt directly — no exception translation, so
   sink callbacks can never be mistaken for decode errors. The common
   single-byte delta returns without entering the multi-byte loop. *)
let[@inline] rd_delta b pos limit =
  let p = !pos in
  if p >= limit then corrupt "truncated varint in event payload";
  let c = Char.code (Bytesrc.unsafe_get b p) in
  if c < 0x80 then begin
    pos := p + 1;
    (c lsr 1) lxor (-(c land 1))
  end
  else begin
    let acc = ref (c land 0x7f) in
    let shift = ref 7 in
    let p = ref (p + 1) in
    let continue = ref true in
    while !continue do
      if !shift > 56 then corrupt "varint overflow in event payload";
      if !p >= limit then corrupt "truncated varint in event payload";
      let c = Char.code (Bytesrc.unsafe_get b !p) in
      incr p;
      acc := !acc lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      if c < 0x80 then continue := false
    done;
    pos := !p;
    let z = !acc in
    (z lsr 1) lxor (-(z land 1))
  end

(* [operand st slot b pos limit]: delta-decode one operand against its
   predictor slot, kept a top-level function (not a per-event closure)
   so the event loop allocates nothing. *)
let[@inline] operand st slot b pos limit =
  let v = st.Layout.preds.(slot) + rd_delta b pos limit in
  st.Layout.preds.(slot) <- v;
  v

let decode_event t op b pos limit sink =
  let st = t.state in
  let dnow = rd_delta b pos limit in
  let now = st.Layout.last_now + dnow in
  st.Layout.last_now <- now;
  t.events <- t.events + 1;
  if op = Layout.op_heap_load then begin
    let addr = operand st Layout.p_heap_load_addr b pos limit in
    let pc = operand st Layout.p_heap_load_pc b pos limit in
    sink.Hydra.Trace.on_heap_load ~addr ~pc ~now
  end
  else if op = Layout.op_heap_store then begin
    let addr = operand st Layout.p_heap_store_addr b pos limit in
    sink.Hydra.Trace.on_heap_store ~addr ~now
  end
  else if op = Layout.op_local_load then begin
    let frame = operand st Layout.p_local_load_frame b pos limit in
    let slot = operand st Layout.p_local_load_slot b pos limit in
    let pc = operand st Layout.p_local_load_pc b pos limit in
    sink.Hydra.Trace.on_local_load ~frame ~slot ~pc ~now
  end
  else if op = Layout.op_local_store then begin
    let frame = operand st Layout.p_local_store_frame b pos limit in
    let slot = operand st Layout.p_local_store_slot b pos limit in
    sink.Hydra.Trace.on_local_store ~frame ~slot ~now
  end
  else if op = Layout.op_eoi then begin
    let stl = operand st Layout.p_eoi_stl b pos limit in
    sink.Hydra.Trace.on_eoi ~stl ~now
  end
  else if op = Layout.op_sloop then begin
    let stl = operand st Layout.p_sloop_stl b pos limit in
    let nlocals = operand st Layout.p_sloop_nlocals b pos limit in
    let frame = operand st Layout.p_sloop_frame b pos limit in
    sink.Hydra.Trace.on_sloop ~stl ~nlocals ~frame ~now
  end
  else if op = Layout.op_eloop then begin
    let stl = operand st Layout.p_eloop_stl b pos limit in
    sink.Hydra.Trace.on_eloop ~stl ~now
  end
  else if op = Layout.op_read_stats then begin
    let stl = operand st Layout.p_read_stats_stl b pos limit in
    sink.Hydra.Trace.on_read_stats ~stl ~now
  end
  else if op = Layout.op_call then begin
    let callee = operand st Layout.p_call_callee b pos limit in
    sink.Hydra.Trace.on_call ~callee ~now
  end
  else if op = Layout.op_return then sink.Hydra.Trace.on_return ~now
  else corrupt "unknown event opcode 0x%02x" op

(* a framed segment contains bare event ops only *)
let decode_bare t b start stop sink =
  let pos = ref start in
  while !pos < stop do
    let op = Char.code (Bytesrc.unsafe_get b !pos) in
    incr pos;
    if op = Layout.op_seg || op = Layout.op_repeat then
      corrupt "framed opcode 0x%02x inside a segment" op;
    decode_event t op b pos stop sink
  done

let decode_payload t b start stop sink =
  let pos = ref start in
  while !pos < stop do
    let op = Char.code (Bytesrc.unsafe_get b !pos) in
    incr pos;
    if op = Layout.op_seg then begin
      let slen = rd_unsigned b ~limit:stop pos in
      if !pos + slen > stop then corrupt "segment overruns its event chunk";
      let soff = !pos in
      pos := soff + slen;
      decode_bare t b soff (soff + slen) sink;
      (* zero-copy reference: the span stays addressable because the
         chunk bytes (mapped pages or the chunk string) outlive it *)
      t.seg_src <- b;
      t.seg_off <- soff;
      t.seg_len <- slen
    end
    else if op = Layout.op_repeat then begin
      let count = rd_unsigned b ~limit:stop pos in
      if count = 0 || count > max_repeat then
        corrupt "implausible repeat count %d" count;
      if t.seg_len = 0 then corrupt "repeat op with no reference segment";
      for _ = 1 to count do
        decode_bare t t.seg_src t.seg_off (t.seg_off + t.seg_len) sink
      done
    end
    else decode_event t op b pos stop sink
  done

(* ---------------- cursor ---------------- *)

let skip_rest_of_record t =
  let rec go () =
    let tag = read_byte t "chunk tag" in
    let len = read_uvarint t "chunk length" in
    skip_exact t len "skipped chunk";
    if tag = Layout.tag_record_end then ()
    else if tag = Layout.tag_record_begin || tag = Layout.tag_container_end then
      corrupt "record not terminated before tag 0x%02x" tag
    else go ()
  in
  go ()

let parse_record_begin payload =
  let pos = ref 0 in
  let take what =
    let n = rd_unsigned (Bytesrc.Str payload) ~limit:(String.length payload) pos in
    if !pos + n > String.length payload then
      corrupt "%s overruns the record-begin chunk" what;
    let s = String.sub payload !pos n in
    pos := !pos + n;
    s
  in
  let name = take "record name" in
  let meta_s = take "record metadata" in
  let meta =
    match Obs.Json.parse meta_s with
    | Ok j -> j
    | Error e -> corrupt "record metadata is not valid JSON: %s" e
  in
  { name; meta }

let rec next_record t =
  match t.cursor with
  | Container_done -> None
  | In_record ->
      skip_rest_of_record t;
      t.cursor <- Record_done;
      next_record t
  | Header_done | Record_done -> (
      let frame_start = t.off in
      let tag = read_byte t "chunk tag" in
      if tag = Layout.tag_container_end then begin
        let len = read_uvarint t "chunk length" in
        skip_exact t len "container-end chunk";
        (match read_byte_opt t with
        | Some b -> corrupt "trailing byte 0x%02x after the container end" b
        | None -> ());
        t.cursor <- Container_done;
        None
      end
      else if tag = Layout.tag_record_begin then begin
        let len = read_uvarint t "chunk length" in
        let payload = read_exact t len "record-begin chunk" in
        let r = parse_record_begin payload in
        Layout.reset_state t.state;
        t.seg_src <- Bytesrc.Str "";
        t.seg_off <- 0;
        t.seg_len <- 0;
        t.events <- 0;
        t.checksum <- Layout.checksum_init;
        t.record_start <- frame_start;
        t.cursor <- In_record;
        Some r
      end
      else if tag = Layout.tag_events || tag = Layout.tag_record_end then
        corrupt "chunk tag 0x%02x outside a record" tag
      else begin
        (* unknown chunk kind: skip by declared length (forward compat) *)
        let len = read_uvarint t "chunk length" in
        skip_exact t len "unknown chunk";
        next_record t
      end)

let record_offset t = t.record_start

let seek_record t ~offset =
  if offset < 0 then corrupt "seek offset %d is negative" offset;
  if offset > Bytesrc.length t.src then
    corrupt "seek offset %d is past the container end" offset;
  t.off <- offset;
  t.cursor <- Record_done;
  match next_record t with
  | Some r -> r
  | None -> corrupt "no record at offset %d" offset

let verify_record_end t payload =
  let b = Bytesrc.Str payload in
  let limit = String.length payload in
  let pos = ref 0 in
  let count = rd_unsigned b ~limit pos in
  let final_now = rd_signed b ~limit pos in
  if !pos + 4 > String.length payload then
    corrupt "record-end chunk too short for its checksum";
  let byte i = Char.code payload.[!pos + i] in
  let declared =
    byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)
  in
  pos := !pos + 4;
  if !pos <> String.length payload then
    corrupt "%d trailing bytes in the record-end chunk"
      (String.length payload - !pos);
  if count <> t.events then
    corrupt "event count mismatch: end chunk declares %d, decoded %d" count
      t.events;
  if count > 0 && final_now <> t.state.Layout.last_now then
    corrupt "final timestamp mismatch: end chunk declares %d, decoded %d"
      final_now t.state.Layout.last_now;
  if declared <> t.checksum then
    corrupt "checksum mismatch: end chunk declares 0x%08x, computed 0x%08x"
      declared t.checksum

let replay t sink =
  (match t.cursor with
  | In_record -> ()
  | _ ->
      invalid_arg
        "Trace_store.Reader.replay: no current record (call next_record first)");
  let rec go () =
    let tag = read_byte t "chunk tag" in
    let len = read_uvarint t "chunk length" in
    if tag = Layout.tag_events then begin
      (* zero-copy: checksum and decode the chunk at its container
         offset; nothing is materialized per chunk or per task *)
      let start = t.off in
      skip_exact t len "event chunk";
      t.checksum <- Layout.checksum t.checksum t.src ~pos:start ~len;
      decode_payload t t.src start (start + len) sink;
      go ()
    end
    else if tag = Layout.tag_record_end then begin
      let payload = read_exact t len "record-end chunk" in
      verify_record_end t payload;
      t.cursor <- Record_done
    end
    else if tag = Layout.tag_record_begin || tag = Layout.tag_container_end then
      corrupt "record not terminated before tag 0x%02x" tag
    else begin
      skip_exact t len "unknown chunk";
      go ()
    end
  in
  go ();
  { events = t.events; record_bytes = t.off - t.record_start }
