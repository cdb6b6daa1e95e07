type entry = { name : string; offset : int; bytes : int; events : int }

let of_src b =
  let r = Reader.of_src b in
  let rec walk acc =
    match Reader.next_record ~meta:false r with
    | None -> List.rev acc
    | Some { Reader.name; _ } ->
        let offset = Reader.record_offset r in
        let { Reader.events; record_bytes = bytes } = Reader.skip_record r in
        walk ({ name; offset; bytes; events } :: acc)
  in
  walk []

let of_string s = of_src (Bytesrc.of_string s)
