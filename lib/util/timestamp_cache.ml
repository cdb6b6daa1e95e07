(* Flat open-addressing FIFO cache; see the .mli for the design notes.

   Layout: [keys]/[vals] are the hash table proper (linear probing,
   slot count a power of two kept at most half full so probe chains
   stay short and the probe loop always terminates); [link_prev] /
   [link_next] thread an intrusive doubly-linked eviction list through
   the occupied slots, oldest at [head], newest at [tail]. keys.(i) =
   -1 marks an empty slot. Slot indices are always masked into range,
   so the arrays are read unchecked. *)

type t = {
  cap : int;
  mask : int; (* slot count - 1 *)
  shift : int; (* word size - log2 (slot count): see [home] *)
  keys : int array;
  vals : int array;
  link_prev : int array; (* toward older; -1 = this is the oldest *)
  link_next : int array; (* toward newer; -1 = this is the newest *)
  mutable head : int; (* oldest occupied slot, -1 when empty *)
  mutable tail : int; (* newest occupied slot, -1 when empty *)
  mutable len : int;
  mutable evicted : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Timestamp_cache.create";
  (* smallest power of two >= 2*capacity (and >= 8) *)
  let bits =
    let b = ref 3 in
    while 1 lsl !b < 2 * capacity do
      incr b
    done;
    !b
  in
  let slots = 1 lsl bits in
  {
    cap = capacity;
    mask = slots - 1;
    shift = Sys.int_size - bits;
    keys = Array.make slots (-1);
    vals = Array.make slots 0;
    link_prev = Array.make slots (-1);
    link_next = Array.make slots (-1);
    head = -1;
    tail = -1;
    len = 0;
    evicted = 0;
  }

let capacity t = t.cap
let length t = t.len
let evictions t = t.evicted

let slots t = t.mask + 1

(* Multiplicative hashing, as the TLS simulator's speculative tables
   do: the top bits of [k] times an odd constant, one multiply and one
   shift, so neither consecutive cache lines nor the frame*2^20 + slot
   local keys pile up on one slot. *)
let[@inline] home t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

let[@inline] key t i = Array.unsafe_get t.keys i

(* Slot holding [k], or -1. The table is never more than half full, so
   the probe always reaches an empty slot. *)
let[@inline] find_slot t k =
  let i = ref (home t k) in
  while
    let ki = key t !i in
    ki <> k && ki <> -1
  do
    i := (!i + 1) land t.mask
  done;
  if key t !i = k then !i else -1

(* First empty slot at or after [i]; the table is at most half full. *)
let free_slot t i =
  let i = ref i in
  while key t !i <> -1 do
    i := (!i + 1) land t.mask
  done;
  !i

(* ---- intrusive FIFO list surgery ---- *)

let unlink t i =
  let p = t.link_prev.(i) and n = t.link_next.(i) in
  if p >= 0 then t.link_next.(p) <- n else t.head <- n;
  if n >= 0 then t.link_prev.(n) <- p else t.tail <- p

let push_newest t i =
  t.link_prev.(i) <- t.tail;
  t.link_next.(i) <- -1;
  if t.tail >= 0 then t.link_next.(t.tail) <- i else t.head <- i;
  t.tail <- i

(* ---- hash-table deletion (backward-shift, no tombstones) ----

   After emptying slot [i], walk the probe chain after it; any entry
   whose home slot does not lie in the cyclic range (i, j] can be
   shifted back into the hole (restoring the linear-probing invariant),
   which moves the hole forward. Each move must also re-point the moved
   entry's intrusive links. *)

(* Tail-recursive with all state in parameters (a local [ref] would
   allocate, and this runs on the per-event path). *)
let rec backward_shift t hole j =
  if key t j >= 0 then begin
    let h = home t (key t j) in
    let hole_to_j = (j - hole) land t.mask in
    let home_to_j = (j - h) land t.mask in
    let hole =
      if home_to_j >= hole_to_j then begin
        (* the hole lies on this entry's probe path: shift it back *)
        t.keys.(hole) <- t.keys.(j);
        t.vals.(hole) <- t.vals.(j);
        let p = t.link_prev.(j) and n = t.link_next.(j) in
        t.link_prev.(hole) <- p;
        t.link_next.(hole) <- n;
        if p >= 0 then t.link_next.(p) <- hole else t.head <- hole;
        if n >= 0 then t.link_prev.(n) <- hole else t.tail <- hole;
        t.keys.(j) <- -1;
        j
      end
      else hole
    in
    backward_shift t hole ((j + 1) land t.mask)
  end

let delete_slot t i =
  t.keys.(i) <- -1;
  backward_shift t i ((i + 1) land t.mask)

let evict_oldest t =
  let i = t.head in
  if i < 0 then -1
  else begin
    let v = t.vals.(i) in
    unlink t i;
    delete_slot t i;
    t.len <- t.len - 1;
    t.evicted <- t.evicted + 1;
    v
  end

let set t k v =
  if k < 0 then invalid_arg "Timestamp_cache.set: negative key";
  if v < 0 then invalid_arg "Timestamp_cache.set: negative value";
  let i = find_slot t k in
  if i >= 0 then begin
    (* refresh: new value, back of the eviction order *)
    t.vals.(i) <- v;
    if t.tail <> i then begin
      unlink t i;
      push_newest t i
    end
  end
  else begin
    if t.len >= t.cap then ignore (evict_oldest t);
    let i = free_slot t (home t k) in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    push_newest t i;
    t.len <- t.len + 1
  end

let[@inline] get t k =
  if k < 0 then invalid_arg "Timestamp_cache.get: negative key";
  let i = find_slot t k in
  if i >= 0 then Array.unsafe_get t.vals i else -1

let mem t k = find_slot t k >= 0

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.head <- -1;
  t.tail <- -1;
  t.len <- 0;
  t.evicted <- 0
