(* First-class hardware model of the Hydra CMP + TEST tracer.

   Every geometry and overhead constant the paper fixes (Tables 1/2,
   Sec. 5.3, the 4-CPU machine) lives here as a record field so the
   analysis can be evaluated at machine points other than the paper's:
   [default] is the paper's machine (the one definition of it), and the
   design-space exploration layer (jrpm explore) sweeps grids of
   variants over replayed traces. *)

type t = {
  (* TEST tracer geometry (paper Sec. 5.3) *)
  comparator_banks : int;
  heap_ts_fifo_lines : int;
  cacheline_ts_lines : int;
  local_ts_slots : int;
  (* TLS buffer limits (Table 1) *)
  load_buffer_lines : int;
  store_buffer_lines : int;
  line_words : int;
  (* TLS overheads in cycles (Table 2) *)
  loop_startup : int;
  loop_shutdown : int;
  loop_eoi : int;
  violation_restart : int;
  store_load_communication : int;
  (* Hydra machine *)
  num_cpus : int;
}

let default =
  {
    (* TEST hardware capacities (paper Sec. 5.3) *)
    comparator_banks = 8;
    heap_ts_fifo_lines = 192; (* 6 kB of write history, line-sized entries *)
    cacheline_ts_lines = 64; (* 2 kB direct-mapped *)
    local_ts_slots = 64; (* 2 kB, one buffer *)
    (* Table 1: per-thread speculative state, in 32-byte lines *)
    load_buffer_lines = 512; (* 16 kB, 4-way *)
    store_buffer_lines = 64; (* 2 kB, fully associative *)
    line_words = 8; (* one 32-byte line holds 8 four-byte words *)
    (* Table 2, in cycles *)
    loop_startup = 25;
    loop_shutdown = 25;
    loop_eoi = 5;
    violation_restart = 5;
    store_load_communication = 10;
    num_cpus = 4;
  }

let equal (a : t) (b : t) = a = b

(* Field table: single source of truth for the codec, the fingerprint,
   and the validation — adding a field here extends all three. *)
let fields : (string * (t -> int)) list =
  [
    ("comparator_banks", fun c -> c.comparator_banks);
    ("heap_ts_fifo_lines", fun c -> c.heap_ts_fifo_lines);
    ("cacheline_ts_lines", fun c -> c.cacheline_ts_lines);
    ("local_ts_slots", fun c -> c.local_ts_slots);
    ("load_buffer_lines", fun c -> c.load_buffer_lines);
    ("store_buffer_lines", fun c -> c.store_buffer_lines);
    ("line_words", fun c -> c.line_words);
    ("loop_startup", fun c -> c.loop_startup);
    ("loop_shutdown", fun c -> c.loop_shutdown);
    ("loop_eoi", fun c -> c.loop_eoi);
    ("violation_restart", fun c -> c.violation_restart);
    ("store_load_communication", fun c -> c.store_load_communication);
    ("num_cpus", fun c -> c.num_cpus);
  ]

let validate (c : t) =
  let positive =
    [
      ("comparator_banks", c.comparator_banks);
      ("heap_ts_fifo_lines", c.heap_ts_fifo_lines);
      ("cacheline_ts_lines", c.cacheline_ts_lines);
      ("local_ts_slots", c.local_ts_slots);
      ("load_buffer_lines", c.load_buffer_lines);
      ("store_buffer_lines", c.store_buffer_lines);
      ("line_words", c.line_words);
      ("num_cpus", c.num_cpus);
    ]
  in
  List.iter
    (fun (name, v) ->
      if v <= 0 then
        invalid_arg
          (Printf.sprintf "Hydra.Config: %s must be positive (got %d)" name v))
    positive;
  let non_negative =
    [
      ("loop_startup", c.loop_startup);
      ("loop_shutdown", c.loop_shutdown);
      ("loop_eoi", c.loop_eoi);
      ("violation_restart", c.violation_restart);
      ("store_load_communication", c.store_load_communication);
    ]
  in
  List.iter
    (fun (name, v) ->
      if v < 0 then
        invalid_arg
          (Printf.sprintf "Hydra.Config: %s must be non-negative (got %d)" name
             v))
    non_negative;
  c

(* ---------------- JSON codec (lib/obs schema) ---------------- *)

let to_json (c : t) =
  Obs.Json.Obj (List.map (fun (name, get) -> (name, Obs.Json.Int (get c))) fields)

let of_json json : t =
  let int key =
    match Option.bind (Obs.Json.member key json) Obs.Json.to_int with
    | Some v -> v
    | None ->
        failwith
          ("Hydra.Config.of_json: missing or mistyped field " ^ key)
  in
  validate
    {
      comparator_banks = int "comparator_banks";
      heap_ts_fifo_lines = int "heap_ts_fifo_lines";
      cacheline_ts_lines = int "cacheline_ts_lines";
      local_ts_slots = int "local_ts_slots";
      load_buffer_lines = int "load_buffer_lines";
      store_buffer_lines = int "store_buffer_lines";
      line_words = int "line_words";
      loop_startup = int "loop_startup";
      loop_shutdown = int "loop_shutdown";
      loop_eoi = int "loop_eoi";
      violation_restart = int "violation_restart";
      store_load_communication = int "store_load_communication";
      num_cpus = int "num_cpus";
    }

(* ---------------- fingerprint ---------------- *)

(* FNV-1a 64-bit over the canonical "name=value" field sequence. The
   fingerprint keys regression baselines and explore matrix columns, so
   it must be stable across sessions and processes: it hashes the field
   table above (fixed order), not any JSON rendering. *)
let fingerprint (c : t) =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let feed_byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) fnv_prime
  in
  let feed_string s = String.iter (fun ch -> feed_byte (Char.code ch)) s in
  List.iter
    (fun (name, get) ->
      feed_string name;
      feed_byte (Char.code '=');
      feed_string (string_of_int (get c));
      feed_byte (Char.code ';'))
    fields;
  Printf.sprintf "%016Lx" !h

let default_fingerprint = fingerprint default

(* ---------------- rendering ---------------- *)

(* Human-readable label: only the fields that differ from [default],
   e.g. "cpus=8 banks=4"; the default config renders as "default". *)
let short_names =
  [
    ("comparator_banks", "banks");
    ("heap_ts_fifo_lines", "heap_fifo");
    ("cacheline_ts_lines", "cacheline_ts");
    ("local_ts_slots", "local_slots");
    ("load_buffer_lines", "load_buffer");
    ("store_buffer_lines", "store_buffer");
    ("line_words", "line_words");
    ("loop_startup", "startup");
    ("loop_shutdown", "shutdown");
    ("loop_eoi", "eoi");
    ("violation_restart", "restart");
    ("store_load_communication", "forward");
    ("num_cpus", "cpus");
  ]

let label (c : t) =
  let diffs =
    List.filter_map
      (fun (name, get) ->
        if get c = get default then None
        else
          Some
            (Printf.sprintf "%s=%d" (List.assoc name short_names) (get c)))
      fields
  in
  match diffs with [] -> "default" | l -> String.concat " " l

let pp ppf c = Format.pp_print_string ppf (label c)
