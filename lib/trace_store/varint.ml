exception Overflow

(* The raw LEB128 layer works on the 63-bit *bit pattern* of an int
   (lsr/land only), so zigzag outputs that wrap negative still encode in
   at most 9 bytes. The value-semantics checks live in the wrappers. *)

let write_raw buf n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

let write_unsigned buf n =
  if n < 0 then invalid_arg "Trace_store.Varint.write_unsigned: negative";
  write_raw buf n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))
let write_signed buf n = write_raw buf (zigzag n)

(* The one bounded decoder, a plain loop: no closure is built per call,
   so framing varints on the replay path allocate nothing. *)
let read_raw_src b ~limit pos =
  let acc = ref 0 and shift = ref 0 and p = ref !pos and more = ref true in
  while !more do
    if !shift > 56 then raise Overflow;
    if !p >= limit then
      invalid_arg "Trace_store.Varint: truncated varint in byte source";
    let c = Char.code (Bytesrc.unsafe_get b !p) in
    incr p;
    acc := !acc lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := c land 0x80 <> 0
  done;
  pos := !p;
  !acc

let read_unsigned_src b ~limit pos =
  let v = read_raw_src b ~limit pos in
  if v < 0 then raise Overflow;
  v

let read_signed_src b ~limit pos = unzigzag (read_raw_src b ~limit pos)
