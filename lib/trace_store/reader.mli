(** Replay side of the trace store, and its one container parser:
    stream a container's records back into any {!Hydra.Trace.sink} —
    typically a fresh [Test_core.Tracer], which then cannot tell replay
    from live interpretation — and walk its chunk frames for {!Index}.

    A reader is a cursor over the container: {!next_record} yields the
    next record's name and metadata (skipping the rest of the current
    record if its events were not consumed), {!replay} decodes the
    current record's event stream into a sink, and {!skip_record} walks
    past it without decoding. {!Index.of_src} is these three steps
    (metadata unparsed, events skipped), so the header check, the frame
    reader and the record parse exist once.

    A reader decodes in place over a {!Bytesrc.t} ({!of_src}, or
    {!of_string}), a bigstring: one segment loop decodes every event
    inline, keeping its position in a register and each decoded operand
    in its predictor slot, allocation-free per event (a test pins the
    minor words per replayed event), and skipping a record just
    advances an offset. Files are read through {!Bytesrc.map_file},
    which maps the container (or reads it whole where mapping fails).
    That is the zero-copy handoff path: the parent maps the container
    once, forked workers inherit the read-only pages, and each worker
    builds a cheap cursor with {!of_src} + {!seek_record} — no per-task
    file open, header read, or chunk copy. Every structural violation —
    bad magic or version, truncation, an unknown opcode, a varint
    overflowing the native int, a length running past its chunk, an
    [op_repeat] with no reference segment, or an end-chunk event-count /
    final-timestamp / checksum mismatch — raises {!Corrupt} with a
    description; {!Corrupt} is the *only* error a well-typed caller must
    handle for hostile input. Unknown {e chunk tags} (the retired index
    chunk, tag 0x04, among them) are skipped by their declared length,
    as the §7 forward-compat rule requires.

    Versioning contract: this reader accepts exactly
    {!Layout.version}. A future writer that changes anything an old
    reader would silently misdecode (opcode meaning, predictor
    assignment, checksum definition) must bump the version byte;
    additions that old readers can ignore (new chunk tags, header
    extension bytes) must not. *)

type t

exception Corrupt of string
(** The file is not a well-formed version-{!Layout.version} container.
    The message says what failed and where it was detected. This is a
    rebinding of {!Corrupt.Corrupt} — the same exception
    {!Bytesrc.map_file} raises for unreadable paths — so catching
    either name catches both. *)

type record = { name : string; meta : Obs.Json.t }
(** One workload record's identity: the begin-chunk name and decoded
    metadata object (see {!Jrpm.Replay} for the schema the pipeline
    writes). *)

type replay_stats = {
  events : int;       (** logical events delivered to the sink *)
  record_bytes : int; (** encoded record size, begin chunk through end
                          chunk — the denominator of bytes/event *)
}

val of_string : string -> t
(** A direct reader over in-memory container bytes
    ({!Writer.container} output) — what the tests and property checks
    drive. Equivalent to [of_src (Bytesrc.of_string s)], so it decodes
    a copy of [s]. *)

val of_src : Bytesrc.t -> t
(** A direct reader over any byte source. Cheap (validates the header,
    copies nothing): the record-sharded decoder builds one per task
    over the shared mapping. @raise Corrupt on a bad header. *)

val next_record : ?meta:bool -> t -> record option
(** Advance to the next record and return its identity, or [None] at
    the container end (which must be the explicit end chunk — EOF
    before it raises {!Corrupt}). Undecoded events of the current
    record are skipped as by {!skip_record}. With [~meta:false] the
    metadata JSON is neither parsed nor checked and [meta] is [Null]:
    the index walk. *)

val skip_record : t -> replay_stats
(** Walk past the rest of the current record frame by frame, without
    decoding events or verifying the checksum. [events] is the count
    the record's end chunk declares, [record_bytes] its framed size.
    Must follow a successful {!next_record}, like {!replay}. *)

val seek_record : t -> offset:int -> record
(** Position the cursor at the record whose begin chunk starts at the
    absolute container [offset] (an {!Index.entry}'s [offset]) and
    return its identity, exactly as if {!next_record} had just walked
    to it: codec state is reset, so {!replay} then decodes the record
    identically to a sequential pass — records being self-contained is
    what makes the sharded parallel decoder sound. The cursor continues
    forward from there; seeking backward is allowed.
    @raise Corrupt when [offset] does not address a record. *)

val record_offset : t -> int
(** The absolute offset of the current record's begin chunk: the
    [offset] that {!seek_record} takes to rewind to the record, so that
    it can be replayed again. *)

val replay : t -> Hydra.Trace.sink -> replay_stats
(** Decode the current record's whole event stream into the sink, in
    capture order, verifying the end chunk. Must follow a successful
    {!next_record}; a second call for the same record raises
    [Invalid_argument] (records stream once — reopen to re-replay). *)
