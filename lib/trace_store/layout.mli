(** On-disk layout constants of the trace container — the
    machine-readable half of the format spec (ARCHITECTURE.md §7 is the
    prose half; the two must change together, behind a {!version} bump
    for anything an old reader would misparse).

    A container is [magic] + a version byte + a varint-length-prefixed
    header-extension area (empty in every version so far; readers skip it
    unparsed), followed by framed chunks: one tag byte, a varint payload
    length, then the payload. Chunk framing is the forward-compat
    boundary — a reader must skip any unknown tag by its declared
    length, so future versions can add chunk kinds without breaking old
    readers. Within an {!tag_events} payload the opcode stream below is
    version-locked: an unknown opcode is corruption, not extension.

    Each workload record is the chunk sequence {!tag_record_begin},
    {!tag_events}*, {!tag_record_end}, and is self-contained: the delta
    {!state} resets at every record begin, so records can be copied
    between containers byte-for-byte (the parallel sweep's workers rely
    on this — each captures its records independently and the parent
    concatenates them under one header). *)

val magic : string
(** ["JTRC"] — the first four bytes of every container. *)

val version : int
(** Format version byte, currently 2 (version 2 changed the record
    checksum to {!checksum}'s word-at-a-time rule). Readers reject
    other values. *)

(** {2 Chunk tags} *)

val tag_container_end : int
(** [0x00]: last chunk of the container (empty payload); bytes after it
    are an error, EOF before it means truncation. *)

val tag_record_begin : int
(** [0x01]: payload is [varint n · n name bytes · varint m · m bytes of
    metadata JSON] (the {!Obs.Json} rendering of the record's metadata
    object). *)

val tag_events : int
(** [0x02]: payload is a run of opcodes (below). Codec state persists
    across consecutive event chunks of one record — chunking is pure
    I/O framing at opcode boundaries, never a semantic reset. *)

val tag_record_end : int
(** [0x03]: payload is [varint event_count · signed-varint final_now ·
    4-byte little-endian {!checksum} of every event-chunk payload of
    this record, in order]. [final_now] is the last event's
    timestamp, or [-1] when the record is empty. Readers must verify
    all three. *)

(* Tag [0x04] is reserved: version-2 writers before the index walk
   embedded a per-record index chunk right after the header. Readers
   skip it by length like any unknown tag; nothing writes it now. *)

val tag_padding : int
(** [0x05]: zero bytes that only lengthen a record, written just before
    its end chunk when the record would otherwise declare more than
    {!max_events_per_byte} events per byte. Readers skip it by length,
    like any unknown tag, so it needs no version bump. *)

(** {2 Event opcodes}

    Every event op is the opcode byte, then a signed varint timestamp
    delta against the previous event's [now] (any order is encodable,
    though interpreter streams are non-decreasing), then one signed
    varint per remaining operand, each a delta against the last value
    of that same operand position under the same opcode ({!state}
    predictors, all starting at 0). *)

val op_repeat : int
(** [0x00 · varint count]: replay the current reference segment [count]
    more times (see {!op_seg}). Corrupt when no reference segment is
    set. *)

val op_sloop : int
(** [0x01 · Δnow · Δstl · Δnlocals · Δframe] *)

val op_eoi : int
(** [0x02 · Δnow · Δstl] — also the segment delimiter the RLE layer
    cuts on. *)

val op_eloop : int
(** [0x03 · Δnow · Δstl] *)

val op_read_stats : int
(** [0x04 · Δnow · Δstl] *)

val op_heap_load : int
(** [0x05 · Δnow · Δaddr · Δpc] *)

val op_heap_store : int
(** [0x06 · Δnow · Δaddr] *)

val op_local_load : int
(** [0x07 · Δnow · Δframe · Δslot · Δpc] *)

val op_local_store : int
(** [0x08 · Δnow · Δframe · Δslot] *)

val op_call : int
(** [0x09 · Δnow · Δcallee] *)

val op_return : int
(** [0x0A · Δnow] *)

val op_seg : int
(** [0x0B · varint len · len bytes]: one complete delta segment — the
    encoded event ops (bare ops only, ending with {!op_eoi}) of one
    loop-body iteration. Decoding applies the contained ops once and
    makes the byte span the new reference segment for {!op_repeat}.
    Because operands are deltas, repeating the identical byte span
    advances timestamps and strided addresses correctly. Segments
    longer than {!seg_cap} are never framed (their events are emitted
    bare and the reference segment is cleared). *)

val seg_cap : int
(** Maximum framed-segment payload size (64 KiB): bounds writer and
    reader memory per record. *)

val chunk_cap : int
(** Writer flush threshold for {!tag_events} payloads (256 KiB). A
    reader must not assume any particular chunk size, only that chunks
    split at top-level opcode boundaries. *)

val max_events_per_byte : int
(** 64: the most events a record may declare per byte of its framed
    size (begin chunk through end chunk). Readers refuse a denser record
    as corrupt when they read its end chunk — before decoding anything —
    so a container of [n] bytes replays at most [64 n] events, however
    large the counts its repeats and end chunks claim. The densest
    registry record, monteCarlo (18,003 events in 1,234 bytes, 14.6 per
    byte), is 4.4 times below the cap; the writer pads a denser record
    (a long loop whose iterations repeat byte for byte) with
    {!tag_padding} up to it. *)

(** {2 Delta-codec state} *)

type state = { preds : int array }
(** The writer's and reader's shared prediction state: the per-opcode
    operand predictors, and at {!p_now} the previous event's timestamp.
    Both sides must mutate it identically for the deltas to cancel.
    Fresh (and at every record begin): every slot 0. *)

val create_state : unit -> state

val reset_state : state -> unit

(** {3 Predictor slots} — index into [preds] for each (opcode, operand)
    pair; grouped per opcode so e.g. heap-load and heap-store addresses
    predict independently. {!p_now} is every event's timestamp. *)

val p_sloop_stl : int
val p_sloop_nlocals : int
val p_sloop_frame : int
val p_eoi_stl : int
val p_eloop_stl : int
val p_read_stats_stl : int
val p_heap_load_addr : int
val p_heap_load_pc : int
val p_heap_store_addr : int
val p_local_load_frame : int
val p_local_load_slot : int
val p_local_load_pc : int
val p_local_store_frame : int
val p_local_store_slot : int
val p_call_callee : int
val p_now : int
val pred_count : int

val checksum_init : int
(** [0x811c9dc5], the FNV-1a-32 offset basis: the checksum state at a
    record's begin chunk. *)

val checksum : int -> Bytesrc.t -> pos:int -> len:int -> int
(** [checksum h b ~pos ~len] folds one events payload, the [len] bytes
    of [b] at [pos], into the running record checksum [h]: FNV-1a's
    step [h := (h lxor w) * 0x01000193] over the payload's 32-bit
    little-endian words, then over its 0–3 tail bytes one at a time,
    reduced mod 2{^32} once at the end. The record checksum chains this
    over every event-chunk payload of the record, from
    {!checksum_init}. [pos]/[len] must be in range (unchecked). *)
