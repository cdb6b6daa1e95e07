type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = bigstring

let length = Bigarray.Array1.dim
let[@inline] unsafe_get (t : t) i = Bigarray.Array1.unsafe_get t i

external str_get64u : string -> int -> int64 = "%caml_string_get64u"
external big_set64u : bigstring -> int -> int64 -> unit
  = "%caml_bigstring_set64u"

(* Copy [s] to the start of [dst], eight bytes per step and the 0-7
   tail bytes one at a time. The caller checks that [s] fits. *)
let blit_string s (dst : t) =
  let n = String.length s in
  let words = n land lnot 7 in
  let i = ref 0 in
  while !i < words do
    big_set64u dst !i (str_get64u s !i);
    i := !i + 8
  done;
  for i = words to n - 1 do
    Bigarray.Array1.unsafe_set dst i (String.unsafe_get s i)
  done

let create n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let of_string s =
  let b = create (String.length s) in
  blit_string s b;
  b

let sub_string t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Trace_store.Bytesrc.sub_string";
  String.init len (fun i -> unsafe_get t (pos + i))

let corrupt path fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt.Corrupt (path ^ ": " ^ msg))) fmt

(* Read the whole file into a fresh bigstring — the fallback when the
   file cannot be mapped. If even that fails, report corruption, not an
   unhandled exception. *)
let read_whole_file path =
  match
    In_channel.with_open_bin path (fun ic ->
        of_string (really_input_string ic (in_channel_length ic)))
  with
  | src -> src
  | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) ->
      corrupt path "cannot read"

let map_file path =
  (* Stat first: [openfile] succeeds on directories (read fails later
     with a baffling [Sys_error]) and blocks forever on FIFOs, and a
     missing path used to escape as a raw [Unix_error]. All of those
     are "not a trace container" to the caller — say so, with the
     path, before touching the file. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_REG; _ } -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      corrupt path "is a directory, not a trace container"
  | { Unix.st_kind = _; _ } ->
      corrupt path "is not a regular file"
  | exception Unix.Unix_error (err, _, _) ->
      corrupt path "cannot stat: %s" (Unix.error_message err));
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (err, _, _) ->
      corrupt path "cannot open: %s" (Unix.error_message err)
  | fd -> (
      match
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |])
      with
      | genarray -> Bigarray.array1_of_genarray genarray
      (* empty files make mmap fail with EINVAL and some filesystems
         refuse mappings outright: degrade to a whole-file read *)
      | exception (Unix.Unix_error _ | Sys_error _) -> read_whole_file path)
