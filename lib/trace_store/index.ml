type entry = { name : string; offset : int; bytes : int; events : int }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Reader.Corrupt s)) fmt

let rd_uvarint b ~limit pos what =
  match Varint.read_unsigned_src b ~limit pos with
  | v -> v
  | exception Varint.Overflow -> corrupt "varint overflow in %s" what
  | exception Invalid_argument _ -> corrupt "truncated varint in %s" what

(* ---------------- frame walking ---------------- *)

(* Read one chunk frame at [!pos]; returns (tag, payload offset,
   payload length) with [pos] advanced past the payload. *)
let read_frame b pos =
  let limit = Bytesrc.length b in
  if !pos >= limit then corrupt "truncated container (EOF at chunk tag)";
  let tag = Char.code (Bytesrc.unsafe_get b !pos) in
  incr pos;
  let len = rd_uvarint b ~limit pos "chunk length" in
  let payload_off = !pos in
  if payload_off + len > limit then
    corrupt "truncated container (EOF in chunk payload)";
  pos := payload_off + len;
  (tag, payload_off, len)

let skip_header b =
  let mlen = String.length Layout.magic in
  let limit = Bytesrc.length b in
  if limit < mlen + 1 then corrupt "truncated container header";
  if not (String.equal (Bytesrc.sub_string b ~pos:0 ~len:mlen) Layout.magic)
  then corrupt "bad magic (not a trace container)";
  let v = Char.code (Bytesrc.get b mlen) in
  if v <> Layout.version then
    corrupt "unsupported trace format version %d (this reader speaks %d)" v
      Layout.version;
  let pos = ref (mlen + 1) in
  let ext = rd_uvarint b ~limit pos "header extension" in
  if !pos + ext > limit then
    corrupt "truncated container (EOF in header extension)";
  pos := !pos + ext;
  !pos

(* Parse the record name out of a record-begin payload. *)
let record_name b poff plen =
  let p = ref poff in
  let nlen = rd_uvarint b ~limit:(poff + plen) p "record name length" in
  if !p + nlen > poff + plen then corrupt "record name overruns its chunk";
  Bytesrc.sub_string b ~pos:!p ~len:nlen

(* Consume frames from [!pos] until the record end; returns the
   declared event count. Only frame lengths are walked — no event
   decoding, which is what makes indexing a large container cheap. *)
let finish_record b pos =
  let rec go () =
    let tag, ipoff, iplen = read_frame b pos in
    if tag = Layout.tag_record_end then
      rd_uvarint b ~limit:(ipoff + iplen) (ref ipoff) "record event count"
    else if tag = Layout.tag_record_begin || tag = Layout.tag_container_end
    then corrupt "record not terminated before tag 0x%02x" tag
    else go ()
  in
  go ()

let scan_from b start =
  let pos = ref start in
  let entries = ref [] in
  let rec loop () =
    let frame_start = !pos in
    let tag, poff, plen = read_frame b pos in
    if tag = Layout.tag_container_end then begin
      if !pos <> Bytesrc.length b then
        corrupt "trailing bytes after the container end"
    end
    else if tag = Layout.tag_record_begin then begin
      let name = record_name b poff plen in
      let events = finish_record b pos in
      entries :=
        { name; offset = frame_start; bytes = !pos - frame_start; events }
        :: !entries;
      loop ()
    end
    else if tag = Layout.tag_events || tag = Layout.tag_record_end then
      corrupt "chunk tag 0x%02x outside a record" tag
    else loop ()
  in
  loop ();
  List.rev !entries

let scan_src b = scan_from b (skip_header b)
let scan_string s = scan_src (Bytesrc.Str s)

(* ---------------- embedded index chunk ---------------- *)

let chunk_payload entries =
  let b = Buffer.create 256 in
  Varint.write_unsigned b (List.length entries);
  List.iter
    (fun e ->
      Varint.write_unsigned b (String.length e.name);
      Buffer.add_string b e.name;
      Varint.write_unsigned b e.offset;
      Varint.write_unsigned b e.bytes;
      Varint.write_unsigned b e.events)
    entries;
  Buffer.contents b

let decode_chunk_payload b poff plen =
  let stop = poff + plen in
  let p = ref poff in
  let uv what =
    let v = rd_uvarint b ~limit:stop p what in
    if !p > stop then corrupt "%s overruns the index chunk" what;
    v
  in
  let count = uv "index entry count" in
  let entries = ref [] in
  for _ = 1 to count do
    let nlen = uv "index name length" in
    if !p + nlen > stop then corrupt "index name overruns the index chunk";
    let name = Bytesrc.sub_string b ~pos:!p ~len:nlen in
    p := !p + nlen;
    let offset = uv "index offset" in
    let bytes = uv "index record size" in
    let events = uv "index event count" in
    entries := { name; offset; bytes; events } :: !entries
  done;
  if !p <> stop then
    corrupt "%d trailing bytes in the index chunk" (stop - !p);
  List.rev !entries

let embedded_chunk_size b =
  let after_header = skip_header b in
  if after_header < Bytesrc.length b
     && Char.code (Bytesrc.unsafe_get b after_header) = Layout.tag_index
  then
    let pos = ref after_header in
    let _tag, _poff, plen = read_frame b pos in
    Some plen
  else None

let of_src b =
  let after_header = skip_header b in
  if after_header < Bytesrc.length b
     && Char.code (Bytesrc.unsafe_get b after_header) = Layout.tag_index
  then begin
    let pos = ref after_header in
    let _tag, poff, plen = read_frame b pos in
    let base = !pos in
    let entries =
      List.map
        (fun e -> { e with offset = base + e.offset })
        (decode_chunk_payload b poff plen)
    in
    (* trust but verify: a stale or hand-edited index must not send the
       sharded decoder into the middle of a chunk. Only one byte per
       record is touched — the mapped tail parses without reading the
       container body. *)
    List.iter
      (fun e ->
        if
          e.offset < 0 || e.bytes < 0
          || e.offset + e.bytes > Bytesrc.length b
          || e.offset >= Bytesrc.length b
          || Char.code (Bytesrc.unsafe_get b e.offset)
             <> Layout.tag_record_begin
        then corrupt "index entry for %S does not point at a record" e.name)
      entries;
    entries
  end
  else scan_from b after_header

let of_string s = of_src (Bytesrc.Str s)
let of_bigstring b = of_src (Bytesrc.Big b)

(* ---------------- writer support ---------------- *)

(* Validate that [r] is exactly one framed record and summarize it. *)
let summarize_record r =
  let b = Bytesrc.Str r in
  let pos = ref 0 in
  let tag, poff, plen = read_frame b pos in
  if tag <> Layout.tag_record_begin then
    corrupt "record bytes do not start with a record-begin chunk";
  let name = record_name b poff plen in
  let events = finish_record b pos in
  if !pos <> String.length r then corrupt "trailing bytes after the record end";
  (name, events)

let of_records records =
  let off = ref 0 in
  List.map
    (fun r ->
      let name, events = summarize_record r in
      let e = { name; offset = !off; bytes = String.length r; events } in
      off := !off + String.length r;
      e)
    records
