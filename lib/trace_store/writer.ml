type t = {
  state : Layout.state;
  pending : Buffer.t;  (* bare ops of the current (unsealed) segment *)
  chunk : Buffer.t;    (* committed top-level ops of the open event chunk *)
  chunks : Buffer.t;   (* sealed, framed event chunks *)
  (* the sealed payload's bytes for the checksum, which reads one byte
     source representation; reused across chunks, grown on demand *)
  mutable scratch : Bytesrc.t;
  mutable prev_seg : string;  (* reference segment; "" = none *)
  mutable repeats : int;      (* pending op_repeat count *)
  mutable events : int;
  mutable ref_bytes : int;
  mutable checksum : int;
  mutable finished : bool;
}

let create () =
  {
    state = Layout.create_state ();
    pending = Buffer.create 1024;
    chunk = Buffer.create Layout.chunk_cap;
    chunks = Buffer.create (4 * Layout.chunk_cap);
    scratch = Bytesrc.create 0;
    prev_seg = "";
    repeats = 0;
    events = 0;
    ref_bytes = 0;
    checksum = Layout.checksum_init;
    finished = false;
  }

let events t = t.events
let reference_bytes t = t.ref_bytes

(* ---------------- chunk assembly ---------------- *)

let seal_chunk t =
  if Buffer.length t.chunk > 0 then begin
    let payload = Buffer.contents t.chunk in
    let len = String.length payload in
    Buffer.clear t.chunk;
    if Bytesrc.length t.scratch < len then t.scratch <- Bytesrc.create len;
    Bytesrc.blit_string payload t.scratch;
    t.checksum <- Layout.checksum t.checksum t.scratch ~pos:0 ~len;
    Buffer.add_char t.chunks (Char.chr Layout.tag_events);
    Varint.write_unsigned t.chunks len;
    Buffer.add_string t.chunks payload
  end

let commit t s =
  Buffer.add_string t.chunk s;
  if Buffer.length t.chunk >= Layout.chunk_cap then seal_chunk t

let flush_repeats t =
  if t.repeats > 0 then begin
    let b = Buffer.create 8 in
    Buffer.add_char b (Char.chr Layout.op_repeat);
    Varint.write_unsigned b t.repeats;
    t.repeats <- 0;
    commit t (Buffer.contents b)
  end

(* A completed segment (its last op is the eoi just encoded): RLE-match
   it against the reference segment, else frame it as op_seg and make
   it the new reference. Oversized segments are committed bare and
   clear the reference — both sides of the codec bound their per-record
   memory by seg_cap. *)
let seal_segment t =
  let cur = Buffer.contents t.pending in
  Buffer.clear t.pending;
  if cur <> "" && String.equal cur t.prev_seg then t.repeats <- t.repeats + 1
  else begin
    flush_repeats t;
    if String.length cur <= Layout.seg_cap then begin
      let b = Buffer.create (String.length cur + 8) in
      Buffer.add_char b (Char.chr Layout.op_seg);
      Varint.write_unsigned b (String.length cur);
      Buffer.add_string b cur;
      commit t (Buffer.contents b);
      t.prev_seg <- cur
    end
    else begin
      commit t cur;
      t.prev_seg <- ""
    end
  end

(* Commit an over-long unsealed segment bare so [pending] stays bounded
   even on eoi-free streams; it can no longer become a reference. *)
let overflow_pending t =
  if Buffer.length t.pending > Layout.seg_cap then begin
    flush_repeats t;
    commit t (Buffer.contents t.pending);
    Buffer.clear t.pending;
    t.prev_seg <- ""
  end

(* ---------------- event encoding ---------------- *)

let operand t slot v =
  Varint.write_signed t.pending (v - t.state.Layout.preds.(slot));
  t.state.Layout.preds.(slot) <- v

let begin_op t op ~now ~fields =
  if t.finished then invalid_arg "Trace_store.Writer: event after finish";
  Buffer.add_char t.pending (Char.chr op);
  operand t Layout.p_now now;
  t.events <- t.events + 1;
  t.ref_bytes <- t.ref_bytes + 1 + (8 * fields)

let sink t : Hydra.Trace.sink =
  {
    Hydra.Trace.on_sloop =
      (fun ~stl ~nlocals ~frame ~now ->
        begin_op t Layout.op_sloop ~now ~fields:4;
        operand t Layout.p_sloop_stl stl;
        operand t Layout.p_sloop_nlocals nlocals;
        operand t Layout.p_sloop_frame frame;
        overflow_pending t);
    on_eoi =
      (fun ~stl ~now ->
        begin_op t Layout.op_eoi ~now ~fields:2;
        operand t Layout.p_eoi_stl stl;
        seal_segment t);
    on_eloop =
      (fun ~stl ~now ->
        begin_op t Layout.op_eloop ~now ~fields:2;
        operand t Layout.p_eloop_stl stl;
        overflow_pending t);
    on_read_stats =
      (fun ~stl ~now ->
        begin_op t Layout.op_read_stats ~now ~fields:2;
        operand t Layout.p_read_stats_stl stl;
        overflow_pending t);
    on_heap_load =
      (fun ~addr ~pc ~now ->
        begin_op t Layout.op_heap_load ~now ~fields:3;
        operand t Layout.p_heap_load_addr addr;
        operand t Layout.p_heap_load_pc pc;
        overflow_pending t);
    on_heap_store =
      (fun ~addr ~now ->
        begin_op t Layout.op_heap_store ~now ~fields:2;
        operand t Layout.p_heap_store_addr addr;
        overflow_pending t);
    on_local_load =
      (fun ~frame ~slot ~pc ~now ->
        begin_op t Layout.op_local_load ~now ~fields:4;
        operand t Layout.p_local_load_frame frame;
        operand t Layout.p_local_load_slot slot;
        operand t Layout.p_local_load_pc pc;
        overflow_pending t);
    on_local_store =
      (fun ~frame ~slot ~now ->
        begin_op t Layout.op_local_store ~now ~fields:3;
        operand t Layout.p_local_store_frame frame;
        operand t Layout.p_local_store_slot slot;
        overflow_pending t);
    on_call =
      (fun ~callee ~now ->
        begin_op t Layout.op_call ~now ~fields:2;
        operand t Layout.p_call_callee callee;
        overflow_pending t);
    on_return =
      (fun ~now ->
        begin_op t Layout.op_return ~now ~fields:1;
        overflow_pending t);
  }

(* ---------------- record / container assembly ---------------- *)

let frame buf tag payload =
  Buffer.add_char buf (Char.chr tag);
  Varint.write_unsigned buf (String.length payload);
  Buffer.add_string buf payload

let finish ~name ~meta t =
  if t.finished then invalid_arg "Trace_store.Writer.finish: already finished";
  t.finished <- true;
  flush_repeats t;
  if Buffer.length t.pending > 0 then begin
    (* trailing events without a closing eoi: committed bare *)
    commit t (Buffer.contents t.pending);
    Buffer.clear t.pending
  end;
  seal_chunk t;
  let out = Buffer.create (Buffer.length t.chunks + 256) in
  let begin_payload =
    let b = Buffer.create (String.length name + 64) in
    Varint.write_unsigned b (String.length name);
    Buffer.add_string b name;
    let meta_s = Obs.Json.to_string meta in
    Varint.write_unsigned b (String.length meta_s);
    Buffer.add_string b meta_s;
    Buffer.contents b
  in
  frame out Layout.tag_record_begin begin_payload;
  Buffer.add_buffer out t.chunks;
  let framed_size len =
    let b = Buffer.create 10 in
    Varint.write_unsigned b len;
    1 + Buffer.length b + len
  in
  let end_payload =
    let b = Buffer.create 16 in
    Varint.write_unsigned b t.events;
    Varint.write_signed b
      (if t.events = 0 then -1 else t.state.Layout.preds.(Layout.p_now));
    let c = t.checksum in
    Buffer.add_char b (Char.chr (c land 0xff));
    Buffer.add_char b (Char.chr ((c lsr 8) land 0xff));
    Buffer.add_char b (Char.chr ((c lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((c lsr 24) land 0xff));
    Buffer.contents b
  in
  (* lengthen a record denser than readers accept up to the cap *)
  let short =
    ((t.events + Layout.max_events_per_byte - 1) / Layout.max_events_per_byte)
    - (Buffer.length out + framed_size (String.length end_payload))
  in
  if short > 0 then begin
    let n = ref (max 0 (short - 11)) in
    while framed_size !n < short do
      incr n
    done;
    frame out Layout.tag_padding (String.make !n '\000')
  end;
  frame out Layout.tag_record_end end_payload;
  Buffer.contents out

let container records =
  let out = Buffer.create 4096 in
  Buffer.add_string out Layout.magic;
  Buffer.add_char out (Char.chr Layout.version);
  Varint.write_unsigned out 0;
  List.iter (Buffer.add_string out) records;
  Buffer.add_char out (Char.chr Layout.tag_container_end);
  Varint.write_unsigned out 0;
  Buffer.contents out

let to_file ~path records = Atomic_io.write_string ~path (container records)
