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
  (* bytes consumed so far, container start = 0: one ref per reader,
     so that no framing call allocates a position of its own. The event
     loop copies it into a local and back. *)
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
let varint read b ~limit pos what =
  try read b ~limit pos with
  | Varint.Overflow -> corrupt "varint overflow in %s" what
  | Invalid_argument _ -> corrupt "truncated varint in %s" what

let uvarint b ~limit pos what =
  varint Varint.read_unsigned_src b ~limit pos what

let svarint b ~limit pos what = varint Varint.read_signed_src b ~limit pos what

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

let of_string s = of_src (Bytesrc.of_string s)

(* ---------------- event decoding ---------------- *)

(* The event decoder keeps its position in a local, so that the chain
   from one varint to the next stays in registers: each operand read
   takes the position and returns the next one, and leaves its decoded
   value in the operand's predictor slot, where the delta coding wants
   it anyway. Bounds are checked against [stop] before each unchecked
   byte load, and failures raise Corrupt directly, so a sink callback's
   exception is never mistaken for a decode error. *)

(* Add the zigzag-coded delta [z] to [preds.(slot)]; returns [p]. *)
let[@inline] add preds slot z p =
  let d = (z lsr 1) lxor -(z land 1) in
  Array.unsafe_set preds slot (Array.unsafe_get preds slot + d);
  p

let[@inline never] delta_slow preds slot b p stop =
  let acc = ref 0 and shift = ref 0 and p = ref p and more = ref true in
  while !more do
    if !shift > 56 then corrupt "varint overflow in event payload";
    if !p >= stop then corrupt "truncated varint in event payload";
    let c = Char.code (Bytesrc.unsafe_get b !p) in
    incr p;
    acc := !acc lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := c >= 0x80
  done;
  add preds slot !acc !p

(* [operand preds slot b p stop]: delta-decode the operand at [p]
   against predictor [slot] (a {!Layout} constant, in bounds), leaving
   the operand in [preds.(slot)]; returns the position after it. One-
   and two-byte deltas decode inline, longer ones out of line. *)
let[@inline] operand preds slot b p stop =
  if p >= stop then corrupt "truncated varint in event payload";
  let c = Char.code (Bytesrc.unsafe_get b p) in
  if c < 0x80 then add preds slot c (p + 1)
  else if p + 1 < stop && Char.code (Bytesrc.unsafe_get b (p + 1)) < 0x80 then
    let c1 = Char.code (Bytesrc.unsafe_get b (p + 1)) in
    add preds slot ((c land 0x7f) lor (c1 lsl 7)) (p + 2)
  else delta_slow preds slot b p stop

(* The operand the last {!operand} call for [slot] decoded. *)
let[@inline] v preds slot = Array.unsafe_get preds slot

(* The one segment loop: decode the ops in [!(t.pos), stop) into the
   sink, leaving [t.pos] at [stop]. An events payload is decoded with
   [~framed:true]; a framed segment, whose body holds bare event ops
   only, by the same loop with [~framed:false]. *)
let rec decode_ops t stop ~framed (sink : Hydra.Trace.sink) =
  let open Layout in
  let b = t.src and preds = t.state.preds in
  let p = ref !(t.pos) and n = ref 0 in
  while !p < stop do
    let op = Char.code (Bytesrc.unsafe_get b !p) in
    if op = op_seg || op = op_repeat then begin
      if not framed then corrupt "framed opcode 0x%02x inside a segment" op;
      t.events <- t.events + !n;
      n := 0;
      t.pos := !p + 1;
      if op = op_seg then decode_seg t stop sink else decode_repeat t stop sink;
      p := !(t.pos)
    end
    else begin
      let q = operand preds p_now b (!p + 1) stop in
      let now = v preds p_now in
      incr n;
      if op = op_heap_load then begin
        let q = operand preds p_heap_load_addr b q stop in
        p := operand preds p_heap_load_pc b q stop;
        sink.on_heap_load ~addr:(v preds p_heap_load_addr)
          ~pc:(v preds p_heap_load_pc) ~now
      end
      else if op = op_heap_store then begin
        p := operand preds p_heap_store_addr b q stop;
        sink.on_heap_store ~addr:(v preds p_heap_store_addr) ~now
      end
      else if op = op_local_load then begin
        let q = operand preds p_local_load_frame b q stop in
        let q = operand preds p_local_load_slot b q stop in
        p := operand preds p_local_load_pc b q stop;
        sink.on_local_load ~frame:(v preds p_local_load_frame)
          ~slot:(v preds p_local_load_slot) ~pc:(v preds p_local_load_pc) ~now
      end
      else if op = op_local_store then begin
        let q = operand preds p_local_store_frame b q stop in
        p := operand preds p_local_store_slot b q stop;
        sink.on_local_store ~frame:(v preds p_local_store_frame)
          ~slot:(v preds p_local_store_slot) ~now
      end
      else if op = op_eoi then begin
        p := operand preds p_eoi_stl b q stop;
        sink.on_eoi ~stl:(v preds p_eoi_stl) ~now
      end
      else if op = op_sloop then begin
        let q = operand preds p_sloop_stl b q stop in
        let q = operand preds p_sloop_nlocals b q stop in
        p := operand preds p_sloop_frame b q stop;
        sink.on_sloop ~stl:(v preds p_sloop_stl)
          ~nlocals:(v preds p_sloop_nlocals) ~frame:(v preds p_sloop_frame) ~now
      end
      else if op = op_eloop then begin
        p := operand preds p_eloop_stl b q stop;
        sink.on_eloop ~stl:(v preds p_eloop_stl) ~now
      end
      else if op = op_read_stats then begin
        p := operand preds p_read_stats_stl b q stop;
        sink.on_read_stats ~stl:(v preds p_read_stats_stl) ~now
      end
      else if op = op_call then begin
        p := operand preds p_call_callee b q stop;
        sink.on_call ~callee:(v preds p_call_callee) ~now
      end
      else if op = op_return then begin
        p := q;
        sink.on_return ~now
      end
      else corrupt "unknown event opcode 0x%02x" op
    end
  done;
  t.events <- t.events + !n;
  t.pos := stop

(* [op_seg]: decode the segment and make it the reference. The span
   stays addressable because the source outlives it: no copy. *)
and decode_seg t stop sink =
  let slen = uvarint t.src ~limit:stop t.pos "segment length" in
  if slen > stop - !(t.pos) then corrupt "segment overruns its event chunk";
  let soff = !(t.pos) and before = t.events in
  decode_ops t (soff + slen) ~framed:false sink;
  t.seg_off <- soff;
  t.seg_len <- slen;
  t.seg_events <- t.events - before

(* [op_repeat]: the one place a few bytes expand into many events, so
   the work is bounded by the record's declared count, not by the
   count byte. *)
and decode_repeat t stop sink =
  let count = uvarint t.src ~limit:stop t.pos "repeat count" in
  if count = 0 then corrupt "repeat count 0";
  if t.seg_len = 0 then corrupt "repeat op with no reference segment";
  if count > (t.declared - t.events) / t.seg_events then
    corrupt "repeat count %d overruns the record's %d declared events" count
      t.declared;
  let resume = !(t.pos) in
  for _ = 1 to count do
    t.pos := t.seg_off;
    decode_ops t (t.seg_off + t.seg_len) ~framed:false sink
  done;
  t.pos := resume

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
  let last_now = t.state.Layout.preds.(Layout.p_now) in
  if count > 0 && final_now <> last_now then
    corrupt "final timestamp mismatch: end chunk declares %d, decoded %d"
      final_now last_now;
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
    decode_ops t (start + len) ~framed:true sink;
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
