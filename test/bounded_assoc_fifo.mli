(** A bounded, FIFO-evicting associative store: the straightforward
    Hashtbl + queue model that the tests hold {!Util.Timestamp_cache}
    (the tracer's flat-array implementation) equivalent to.

    Models the finite-history timestamp buffers of the TEST hardware
    (Section 5.3 of the paper): each buffer holds a bounded number of
    entries; when capacity is exceeded the oldest entry is evicted, so
    lookups of old keys miss — exactly the "limited history of memory and
    local variable accesses" the paper describes.

    Keys are [int] (addresses / cache-line tags). Inserting an existing key
    refreshes its value and its position in the eviction order. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] makes an empty buffer holding at most [capacity]
    entries. @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Number of live entries, [0 <= length t <= capacity t]. *)

val set : 'a t -> int -> 'a -> unit
(** [set t k v] inserts or refreshes the binding [k -> v], evicting the
    oldest entry if the buffer is full. *)

val find : 'a t -> int -> 'a option
(** [find t k] is the value bound to [k], or [None] if absent or evicted. *)

val mem : 'a t -> int -> bool

val clear : 'a t -> unit

val evictions : 'a t -> int
(** Total number of entries evicted due to capacity since creation/[clear]. *)
