(** LEB128 variable-length integers — the primitive every field of the
    on-disk trace format (ARCHITECTURE.md §7) is built from.

    An unsigned varint stores an int 7 bits at a time, least-significant
    group first; the high bit of each byte marks "more bytes follow".
    Values 0–127 cost one byte, which is why the delta/RLE layers above
    work so hard to keep their operands small. Signed values go through
    the zigzag map first ([0, -1, 1, -2, …] → [0, 1, 2, 3, …]) so that
    small negative deltas stay small on disk.

    Encoders append to a [Buffer.t]; the decoder reads a {!Bytesrc.t} in
    place, at a mutable position and below an explicit limit. OCaml's
    native [int] (63-bit) is the value space: encoding is defined for
    any native int, and a decode that would overflow it raises
    {!Overflow} rather than wrapping. *)

exception Overflow
(** Raised by the decoder on a varint longer than a native int (more
    than 9 payload groups, or 9 groups overflowing 63 bits) — always a
    corrupt or foreign input, never a round-trip of {!write_unsigned}. *)

val write_unsigned : Buffer.t -> int -> unit
(** Append the LEB128 encoding of [n]; [n] must be non-negative.
    @raise Invalid_argument on a negative value. *)

val write_signed : Buffer.t -> int -> unit
(** Append the zigzag-then-LEB128 encoding of [n] (any native int). *)

val read_unsigned_src : Bytesrc.t -> limit:int -> int ref -> int
(** Decode an unsigned varint at [!pos], advancing [pos] past it and
    never reading at or past [limit] (an absolute offset, at most the
    source length). This is the trace store's one LEB128 decoding loop
    (besides the reader's inlined event-operand path): the reader's
    cursor, the record index walk and the [op_seg]/[op_repeat] framing
    all decode through it, and it allocates nothing.
    @raise Overflow on a value that does not fit a native int;
    @raise Invalid_argument when [limit] cuts the varint short. *)

val read_signed_src : Bytesrc.t -> limit:int -> int ref -> int
(** Decode a zigzag varint like {!read_unsigned_src}; inverse of
    {!write_signed}. *)

val zigzag : int -> int
(** [0 → 0, -1 → 1, 1 → 2, -2 → 3, …]: maps small-magnitude signed ints
    to small unsigned ints. Exposed for the format spec's test vectors. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)
