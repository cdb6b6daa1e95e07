(** A bounded, FIFO-evicting int→int associative store with a
    zero-allocation hot path.

    The tracer's per-event timestamp buffers. It models the same finite-history
    timestamp buffers of the TEST hardware (paper Sec. 5.3) — bounded
    capacity, oldest-entry eviction, insert-or-refresh moves a key to
    the back of the eviction order — but is built so that steady-state
    [set]/[get]/[evict_oldest] never allocate:

    - open addressing (linear probing, power-of-two slot count at most
      half full) over flat [int] arrays for keys and values — no boxed
      tuples, no hashtable buckets. A key's probe starts at its
      multiplicative hash, the top bits of the key times an odd
      constant (one multiply and one shift, as the TLS simulator's
      speculative tables hash), and the probe loop is inlined into
      {!get};
    - the FIFO eviction order is kept as intrusive doubly-linked list
      links stored in two more [int] arrays indexed by slot — refresh
      and eviction are O(1) pointer surgery — no stale-queue records
      and no periodic O(n log n) order rebuilds;
    - deletion uses backward-shift compaction (no tombstones), fixing
      up the intrusive links of any slot it moves, so lookups never
      degrade and the table never needs rehashing.

    Keys and values are restricted to non-negative ints so that [-1]
    can serve as the in-band "absent" sentinel: [get] returns a plain
    [int] instead of an allocating [option].

    Observationally equivalent to the plain Hashtbl + queue model in
    [test/bounded_assoc_fifo.ml] (same find results and eviction counts
    for any set/find sequence) — asserted by property tests in
    [test/test_util.ml]. *)

type t

val create : capacity:int -> t
(** [create ~capacity] makes an empty cache holding at most [capacity]
    entries. All memory is allocated here, up front.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val length : t -> int
(** Number of live entries, [0 <= length t <= capacity t]. *)

val set : t -> int -> int -> unit
(** [set t k v] inserts or refreshes the binding [k -> v] and moves [k]
    to the back of the eviction order, evicting the oldest entry first
    if the cache is full.
    @raise Invalid_argument if [k < 0] or [v < 0]. *)

val get : t -> int -> int
(** [get t k] is the value bound to [k], or [-1] if absent or evicted.
    Never allocates. @raise Invalid_argument if [k < 0]. *)

val mem : t -> int -> bool

val evict_oldest : t -> int
(** [evict_oldest t] removes the oldest entry and returns its value
    ([-1] if the cache is empty — nothing is counted in that case).
    Used by the tracer to reclaim a pooled heap-line buffer *before*
    inserting its replacement; counts toward {!evictions} exactly like
    a capacity eviction. *)

val clear : t -> unit

val slots : t -> int
(** The slot count: the smallest power of two at least [2 * capacity]
    and at least 8. *)

val home : t -> int -> int
(** [home t k] is the slot [k]'s probe starts at, in [\[0, slots t)].
    Where a key sits never changes what the cache returns or evicts —
    the eviction order lives in the intrusive links — so this is
    exposed only for tests that build colliding or wrapping key
    streams. *)

val evictions : t -> int
(** Total entries evicted (capacity evictions plus {!evict_oldest})
    since creation/[clear]. *)
