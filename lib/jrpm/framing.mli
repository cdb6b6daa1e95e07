(** Length-prefixed frames over raw file descriptors: [len: 8-byte
    LE][payload]. One wire format shared by the {!Scheduler} pool's
    task/result pipes and the {!Daemon}'s socket protocol
    (ARCHITECTURE.md §9). *)

val max_frame : int
(** Largest accepted payload, [2^30] bytes. A length header outside
    [\[0, max_frame\]] is rejected before anything is allocated. *)

val header_bytes : int
(** [8]: the length header's size. *)

exception Bad_length of int
(** A length header outside [\[0, max_frame\]]; carries the decoded
    value. *)

val restart_eintr : (unit -> 'a) -> 'a
(** Retry [f] for as long as it fails with [EINTR]. *)

val write_all : Unix.file_descr -> Bytes.t -> unit
(** Write every byte, retrying short writes and [EINTR].
    @raise Unix.Unix_error on a write error ([EPIPE] when the reader is
    gone and SIGPIPE is ignored). *)

type read = Complete of Bytes.t | Eof | Truncated
(** [Eof] is end-of-file exactly at a frame boundary; [Truncated] is
    end-of-file anywhere after its first byte — a peer that died
    mid-write. *)

val frame : string -> Bytes.t
(** Header and payload in one buffer, ready for {!write_all}. *)

val payload_length : string -> int
(** Decode the length header at the start of [s] (at least
    {!header_bytes} long). @raise Bad_length when out of range. *)

val read : Unix.file_descr -> read
(** Read one frame and return its payload.
    @raise Bad_length on an out-of-range header, before reading (or
    allocating) the payload. *)
