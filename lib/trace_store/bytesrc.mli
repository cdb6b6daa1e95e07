(** Backing bytes for a trace container, in one representation: a char
    {!Bigarray}, either a read-only file mapping ([Unix.map_file]) or a
    copy of in-memory bytes ({!of_string}).

    The mapping is what makes zero-copy record handoff work: the parent
    maps the container once, forked decoder workers inherit the pages,
    and a task is just an (offset, length) pair into the shared bytes —
    no per-task [open], header re-read, or chunk copy. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = bigstring

val of_string : string -> t
(** A fresh bigstring holding a copy of the string. *)

val create : int -> t
(** [create n]: an uninitialised source of [n] bytes. *)

val blit_string : string -> t -> unit
(** [blit_string s dst] copies [s] to the start of [dst], eight bytes
    per step. Unchecked: the caller guarantees
    [String.length s <= length dst]. *)

val length : t -> int

val unsafe_get : t -> int -> char
(** Unchecked byte access. The caller must have bounds-checked [i]
    against {!length}. *)

val sub_string : t -> pos:int -> len:int -> string
(** Copy a range out as a string (metadata-sized uses only — the event
    hot path never calls this). @raise Invalid_argument out of range. *)

val map_file : string -> t
(** Map a file read-only; falls back to reading the whole file into a
    fresh bigstring when mapping fails (an empty file, or a filesystem
    without mmap), so callers never see the difference.
    @raise Corrupt.Corrupt (= {!Reader.Corrupt}) naming the path when
    it cannot be read as a container at all: missing file, directory,
    FIFO/device, or an unreadable regular file. *)
