(** Per-record index of a trace container — what the record-sharded
    parallel decoder fans out over, and what `jrpm trace info --records`
    prints.

    Records in a container are self-contained (the delta-codec state
    resets at every record begin), so any record can be decoded in
    isolation given its byte offset: {!Reader.seek_record} positions a
    reader there and replays exactly as a sequential scan would have.
    This module produces the offset table two ways:

    - from the optional {!Layout.tag_index} chunk that
      {!Writer.container} embeds right after the header (offsets are
      validated to point at record-begin tags before being trusted);
    - by {e scanning}: walking the chunk frames (tags and lengths only,
      no event decoding) for containers written before the index chunk
      existed. Both paths return identical entries, so every v1
      container — with or without the chunk — is shardable.

    All offsets are absolute container offsets (byte 0 = first magic
    byte), unlike the relative form stored on disk. Errors raise
    {!Reader.Corrupt}, same as the reader proper. *)

type entry = {
  name : string;  (** record name from its begin chunk *)
  offset : int;  (** absolute offset of the record-begin tag byte *)
  bytes : int;  (** framed record size, begin chunk through end chunk *)
  events : int;  (** event count declared by the record-end chunk *)
}

val of_src : Bytesrc.t -> entry list
(** Index a byte source: the embedded index chunk when it is present
    (verified — each offset is checked to land on a record-begin tag,
    touching one byte per record, so a mapped container's tail parses
    without reading the body), a frame scan otherwise. Entries are in
    container order. @raise Reader.Corrupt on a malformed container or
    a lying index. *)

val of_string : string -> entry list
(** [of_src (Bytesrc.Str s)]. *)

val of_bigstring : Bytesrc.bigstring -> entry list
(** [of_src (Bytesrc.Big b)]. *)

val embedded_chunk_size : Bytesrc.t -> int option
(** Payload size in bytes of the embedded index chunk, or [None] for a
    legacy container that has none (`jrpm trace info` reports this).
    @raise Reader.Corrupt on a malformed header or chunk frame. *)

val scan_src : Bytesrc.t -> entry list
(** Always scan the frames, ignoring any embedded index chunk — the
    recovery path, exposed so tests can pin scan/embedded agreement. *)

val scan_string : string -> entry list
(** [scan_src (Bytesrc.Str s)]. *)

(**/**)

(* Writer-side internals (offsets relative to the first record). *)
val of_records : string list -> entry list
val chunk_payload : entry list -> string
