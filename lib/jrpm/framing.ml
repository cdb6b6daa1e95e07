(* [len: 8-byte LE][payload] frames: the scheduler pool's pipe protocol
   and the daemon's socket protocol. *)

let max_frame = 1 lsl 30
let header_bytes = 8

exception Bad_length of int

let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

let write_all fd bytes =
  let len = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < len do
    let n = restart_eintr (fun () -> Unix.write fd bytes !pos (len - !pos)) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    pos := !pos + n
  done

type read = Complete of Bytes.t | Eof | Truncated

let read_exact fd n =
  let buf = Bytes.create n in
  let pos = ref 0 in
  let eof = ref false in
  while (not !eof) && !pos < n do
    let k = restart_eintr (fun () -> Unix.read fd buf !pos (n - !pos)) in
    if k = 0 then eof := true else pos := !pos + k
  done;
  if !pos = n then Complete buf else if !pos = 0 then Eof else Truncated

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.blit_string payload 0 b header_bytes n;
  b

let payload_length s =
  let len = Int64.to_int (String.get_int64_le s 0) in
  if len < 0 || len > max_frame then raise (Bad_length len);
  len

let read fd =
  match read_exact fd header_bytes with
  | (Eof | Truncated) as r -> r
  | Complete hdr -> (
      let len = payload_length (Bytes.unsafe_to_string hdr) in
      match read_exact fd len with
      | Complete _ as r -> r
      (* the header was read, so any shortfall is mid-frame *)
      | Eof | Truncated -> Truncated)
