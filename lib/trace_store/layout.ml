let magic = "JTRC"
let version = 2

let tag_container_end = 0x00
let tag_record_begin = 0x01
let tag_events = 0x02
let tag_record_end = 0x03
let tag_padding = 0x05

let op_repeat = 0x00
let op_sloop = 0x01
let op_eoi = 0x02
let op_eloop = 0x03
let op_read_stats = 0x04
let op_heap_load = 0x05
let op_heap_store = 0x06
let op_local_load = 0x07
let op_local_store = 0x08
let op_call = 0x09
let op_return = 0x0A
let op_seg = 0x0B

let seg_cap = 1 lsl 16
let chunk_cap = 1 lsl 18
let max_events_per_byte = 64

type state = { mutable last_now : int; preds : int array }

let p_sloop_stl = 0
let p_sloop_nlocals = 1
let p_sloop_frame = 2
let p_eoi_stl = 3
let p_eloop_stl = 4
let p_read_stats_stl = 5
let p_heap_load_addr = 6
let p_heap_load_pc = 7
let p_heap_store_addr = 8
let p_local_load_frame = 9
let p_local_load_slot = 10
let p_local_load_pc = 11
let p_local_store_frame = 12
let p_local_store_slot = 13
let p_call_callee = 14
let pred_count = 15

let create_state () = { last_now = 0; preds = Array.make pred_count 0 }

let reset_state st =
  st.last_now <- 0;
  Array.fill st.preds 0 pred_count 0

(* The record checksum: FNV-1a's step, h := (h xor w) * 0x01000193, over
   each events payload taken as 32-bit little-endian words, then over
   its 0-3 tail bytes one at a time. The state is reduced mod 2^32 once,
   at the end: the low 32 bits of an xor and a product depend only on
   the low 32 bits of their operands, so the wide intermediate state
   gives the same result as masking every step. For a fixed word each
   step is a bijection of the state (the prime is odd), and for a fixed
   state it is injective in the word, so any single changed word
   changes the result. The backend match is outside the loops, so a
   mapped chunk costs the same as a string chunk. *)
external str_get32u : string -> int -> int32 = "%caml_string_get32u"

external big_get32u : Bytesrc.bigstring -> int -> int32
  = "%caml_bigstring_get32u"

external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] le32 w = Int32.to_int (if Sys.big_endian then swap32 w else w)
let fnv_prime = 0x01000193
let checksum_init = 0x811c9dc5

let checksum h b ~pos ~len =
  let words_end = pos + (len land lnot 3) and stop = pos + len in
  let h = ref h in
  (match b with
  | Bytesrc.Str s ->
      let i = ref pos in
      while !i < words_end do
        h := (!h lxor le32 (str_get32u s !i)) * fnv_prime;
        i := !i + 4
      done;
      for i = words_end to stop - 1 do
        h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
      done
  | Bytesrc.Big a ->
      let i = ref pos in
      while !i < words_end do
        h := (!h lxor le32 (big_get32u a !i)) * fnv_prime;
        i := !i + 4
      done;
      for i = words_end to stop - 1 do
        h := (!h lxor Char.code (Bigarray.Array1.unsafe_get a i)) * fnv_prime
      done);
  !h land 0xffffffff
