(** Per-record index of a trace container — what the record-sharded
    parallel decoder fans out over, and what `jrpm trace info --records`
    prints.

    Records in a container are self-contained (the delta-codec state
    resets at every record begin), so any record can be decoded in
    isolation given its byte offset: {!Reader.seek_record} positions a
    reader there and replays exactly as a sequential scan would have.
    The offset table comes from one walk over the chunk frames with the
    {!Reader}'s own cursor: tags, lengths, record names and the event
    counts of the record-end chunks. It never decodes an event or
    parses metadata JSON, so indexing costs a few hundred frame reads
    even for a container of millions of events (ARCHITECTURE.md §7,
    "Record index"). Unknown chunks — the index chunk that earlier
    writers embedded after the header (tag 0x04) among them — are
    skipped by length, so every version-2 container indexes the same
    way.

    All offsets are absolute container offsets (byte 0 = first magic
    byte). Errors raise {!Reader.Corrupt}, same as the reader proper. *)

type entry = {
  name : string;  (** record name from its begin chunk *)
  offset : int;  (** absolute offset of the record-begin tag byte *)
  bytes : int;  (** framed record size, begin chunk through end chunk *)
  events : int;  (** event count declared by the record-end chunk *)
}

val of_src : Bytesrc.t -> entry list
(** Index a byte source, entries in container order.
    @raise Reader.Corrupt on a malformed container. *)

val of_string : string -> entry list
(** [of_src (Bytesrc.of_string s)]: indexes a copy of [s]. *)
