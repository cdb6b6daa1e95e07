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
  (* bytes consumed so far, container start = 0. One ref per reader,
     shared by the cursor and the event decoder, so that no decode call
     allocates a position of its own. *)
  pos : int ref;
  mutable cursor : cursor;
  state : Layout.state;
  (* reference segment for op_repeat, as a span into [src], and the
     events it holds; seg_len = 0 means none is set (framed segments
     are never empty) *)
  mutable seg_off : int;
  mutable seg_len : int;
  mutable seg_events : int;
  mutable record_start : int;
  mutable events : int;
  (* the event count the current record's end chunk declares, read
     before decoding: repeats may not replay past it *)
  mutable declared : int;
  mutable checksum : int;
}

(* sanity bound against absurd corrupt lengths: no legitimate writer
   output comes near it *)
let max_chunk = 1 lsl 30

(* ---------------- the cursor's primitives ---------------- *)

let read_byte t what =
  let p = !(t.pos) in
  if p >= Bytesrc.length t.src then
    corrupt "truncated container (EOF in %s)" what;
  t.pos := p + 1;
  Char.code (Bytesrc.unsafe_get t.src p)

(* Varints through the one decoder: bounds and overflow failures are
   corruption, and the narrow handlers here must not catch anything a
   sink callback raises. *)
let uvarint b ~limit pos what =
  try Varint.read_unsigned_src b ~limit pos with
  | Varint.Overflow -> corrupt "varint overflow in %s" what
  | Invalid_argument _ -> corrupt "truncated varint in %s" what

let svarint b ~limit pos what =
  try Varint.read_signed_src b ~limit pos with
  | Varint.Overflow -> corrupt "varint overflow in %s" what
  | Invalid_argument _ -> corrupt "truncated varint in %s" what

(* One chunk frame: returns the tag and its payload length, leaving
   [t.pos] at the payload, which is checked to lie inside the source. *)
let read_frame t =
  let tag = read_byte t "chunk tag" in
  let len = uvarint t.src ~limit:(Bytesrc.length t.src) t.pos "chunk length" in
  if len > max_chunk then corrupt "chunk length %d is implausible" len;
  if len > Bytesrc.length t.src - !(t.pos) then
    corrupt "truncated container (EOF in a 0x%02x chunk payload)" tag;
  (tag, len)

(* A length-prefixed string inside a chunk payload ending at [stop]. *)
let read_string t ~stop what =
  let n = uvarint t.src ~limit:stop t.pos what in
  let p = !(t.pos) in
  if n > stop - p then corrupt "%s overruns its chunk" what;
  t.pos := p + n;
  Bytesrc.sub_string t.src ~pos:p ~len:n

(* ---------------- open ---------------- *)

let of_src src =
  let t =
    {
      src;
      pos = ref 0;
      cursor = Header_done;
      state = Layout.create_state ();
      seg_off = 0;
      seg_len = 0;
      seg_events = 0;
      record_start = 0;
      events = 0;
      declared = 0;
      checksum = Layout.checksum_init;
    }
  in
  let mlen = String.length Layout.magic in
  if Bytesrc.length src < mlen then corrupt "truncated container (EOF in magic)";
  let magic = Bytesrc.sub_string src ~pos:0 ~len:mlen in
  if not (String.equal magic Layout.magic) then
    corrupt "bad magic %S (not a trace container)" magic;
  t.pos := mlen;
  let v = read_byte t "version" in
  if v <> Layout.version then
    corrupt "unsupported trace format version %d (this reader speaks %d)" v
      Layout.version;
  let ext = uvarint src ~limit:(Bytesrc.length src) t.pos "header extension" in
  if ext > Bytesrc.length src - !(t.pos) then
    corrupt "truncated container (EOF in header extension)";
  t.pos := !(t.pos) + ext;
  t

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

(* A framed segment contains bare event ops only. Both loops decode at
   the reader's own [pos] ref, which ends at [stop]. *)
let decode_bare t b stop sink =
  let pos = t.pos in
  while !pos < stop do
    let op = Char.code (Bytesrc.unsafe_get b !pos) in
    incr pos;
    if op = Layout.op_seg || op = Layout.op_repeat then
      corrupt "framed opcode 0x%02x inside a segment" op;
    decode_event t op b pos stop sink
  done

let decode_payload t stop sink =
  let b = t.src and pos = t.pos in
  while !pos < stop do
    let op = Char.code (Bytesrc.unsafe_get b !pos) in
    incr pos;
    if op = Layout.op_seg then begin
      let slen = uvarint b ~limit:stop pos "segment length" in
      if slen > stop - !pos then corrupt "segment overruns its event chunk";
      let soff = !pos and before = t.events in
      decode_bare t b (soff + slen) sink;
      (* zero-copy reference: the span stays addressable because the
         source (mapped pages or the container string) outlives it *)
      t.seg_off <- soff;
      t.seg_len <- slen;
      t.seg_events <- t.events - before
    end
    else if op = Layout.op_repeat then begin
      let count = uvarint b ~limit:stop pos "repeat count" in
      if count = 0 then corrupt "repeat count 0";
      if t.seg_len = 0 then corrupt "repeat op with no reference segment";
      (* the one place a few bytes expand into many events: bound the
         work by the record's declared count, not by the count byte *)
      if count > (t.declared - t.events) / t.seg_events then
        corrupt "repeat count %d overruns the record's %d declared events"
          count t.declared;
      let resume = !pos in
      for _ = 1 to count do
        pos := t.seg_off;
        decode_bare t b (t.seg_off + t.seg_len) sink
      done;
      pos := resume
    end
    else decode_event t op b pos stop sink
  done

(* ---------------- cursor ---------------- *)

(* Walk the current record's remaining frames up to and including its
   end chunk, without decoding events; returns the event count the end
   chunk declares, once it is within the cap for the record's size. *)
let rec skip_to_record_end t =
  let tag, len = read_frame t in
  let stop = !(t.pos) + len in
  if tag = Layout.tag_record_end then begin
    let events = uvarint t.src ~limit:stop t.pos "record event count" in
    t.pos := stop;
    let bytes = stop - t.record_start in
    if events > Layout.max_events_per_byte * bytes then
      corrupt "record declares %d events in %d bytes (at most %d per byte)"
        events bytes Layout.max_events_per_byte;
    events
  end
  else if tag = Layout.tag_record_begin || tag = Layout.tag_container_end then
    corrupt "record not terminated before tag 0x%02x" tag
  else begin
    t.pos := stop;
    skip_to_record_end t
  end

let require_record t what =
  match t.cursor with
  | In_record -> ()
  | _ ->
      invalid_arg
        ("Trace_store.Reader." ^ what
       ^ ": no current record (call next_record first)")

let skip_record t =
  require_record t "skip_record";
  let events = skip_to_record_end t in
  t.cursor <- Record_done;
  { events; record_bytes = !(t.pos) - t.record_start }

let parse_meta s =
  match Obs.Json.parse s with
  | Ok j -> j
  | Error e -> corrupt "record metadata is not valid JSON: %s" e

let rec next_record ?(meta = true) t =
  match t.cursor with
  | Container_done -> None
  | In_record ->
      ignore (skip_record t : replay_stats);
      next_record ~meta t
  | Header_done | Record_done ->
      let frame_start = !(t.pos) in
      let tag, len = read_frame t in
      let stop = !(t.pos) + len in
      if tag = Layout.tag_container_end then begin
        t.pos := stop;
        if stop < Bytesrc.length t.src then
          corrupt "trailing byte 0x%02x after the container end"
            (Char.code (Bytesrc.unsafe_get t.src stop));
        t.cursor <- Container_done;
        None
      end
      else if tag = Layout.tag_record_begin then begin
        let name = read_string t ~stop "record name" in
        let meta =
          if meta then parse_meta (read_string t ~stop "record metadata")
          else Obs.Json.Null
        in
        t.pos := stop;
        Layout.reset_state t.state;
        t.seg_off <- 0;
        t.seg_len <- 0;
        t.seg_events <- 0;
        t.events <- 0;
        t.checksum <- Layout.checksum_init;
        t.record_start <- frame_start;
        t.cursor <- In_record;
        Some { name; meta }
      end
      else if tag = Layout.tag_events || tag = Layout.tag_record_end then
        corrupt "chunk tag 0x%02x outside a record" tag
      else begin
        (* unknown chunk kind: skip by declared length (forward compat) *)
        t.pos := stop;
        next_record ~meta t
      end

let record_offset t = t.record_start

let seek_record t ~offset =
  if offset < 0 then corrupt "seek offset %d is negative" offset;
  if offset > Bytesrc.length t.src then
    corrupt "seek offset %d is past the container end" offset;
  t.pos := offset;
  t.cursor <- Record_done;
  match next_record t with
  | Some r -> r
  | None -> corrupt "no record at offset %d" offset

(* The end chunk's payload, [start, stop): count, final timestamp and
   checksum must match what was decoded. *)
let verify_record_end t start stop =
  let pos = t.pos in
  pos := start;
  let count = uvarint t.src ~limit:stop pos "record event count" in
  let final_now = svarint t.src ~limit:stop pos "record final timestamp" in
  if stop - !pos < 4 then corrupt "record-end chunk too short for its checksum";
  let byte i = Char.code (Bytesrc.unsafe_get t.src (!pos + i)) in
  let declared =
    byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)
  in
  if !pos + 4 <> stop then
    corrupt "%d trailing bytes in the record-end chunk" (stop - !pos - 4);
  pos := stop;
  if count <> t.events then
    corrupt "event count mismatch: end chunk declares %d, decoded %d" count
      t.events;
  if count > 0 && final_now <> t.state.Layout.last_now then
    corrupt "final timestamp mismatch: end chunk declares %d, decoded %d"
      final_now t.state.Layout.last_now;
  if declared <> t.checksum then
    corrupt "checksum mismatch: end chunk declares 0x%08x, computed 0x%08x"
      declared t.checksum

let rec replay_chunks t sink =
  let tag, len = read_frame t in
  let start = !(t.pos) in
  if tag = Layout.tag_events then begin
    (* zero-copy: checksum and decode the chunk at its container
       offset; nothing is materialized per chunk or per task *)
    t.checksum <- Layout.checksum t.checksum t.src ~pos:start ~len;
    decode_payload t (start + len) sink;
    replay_chunks t sink
  end
  else if tag = Layout.tag_record_end then begin
    verify_record_end t start (start + len);
    t.cursor <- Record_done
  end
  else if tag = Layout.tag_record_begin || tag = Layout.tag_container_end then
    corrupt "record not terminated before tag 0x%02x" tag
  else begin
    t.pos := start + len;
    replay_chunks t sink
  end

let replay t sink =
  require_record t "replay";
  (* read the declared count up front, then come back to decode *)
  let start = !(t.pos) in
  t.declared <- skip_to_record_end t;
  t.pos := start;
  replay_chunks t sink;
  { events = t.events; record_bytes = !(t.pos) - t.record_start }
