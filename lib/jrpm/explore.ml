(* Hardware design-space exploration: sweep a grid of Hydra.Config
   variants over a captured trace archive. Each record is decoded once
   into one tracer per fusion group among the grid points (configs equal
   up to their overflow limits share one run), and the analysis
   re-evaluated at every point (Replay.replay_entry_points); the
   default point is always evaluated as the reference column and is
   byte-identical to what interpretation/sweep produced, since replaying
   under the recorded config is the replay-determinism invariant. *)

let fail what = failwith ("Jrpm.Explore: " ^ what)

(* ---------------- grid parsing ---------------- *)

type axis = { field : string; values : int list }

let axis_names =
  (* short CLI name -> canonical field name, plus the canonical names
     themselves *)
  List.map (fun (canon, short) -> (short, canon)) Hydra.Config.short_names
  @ List.map (fun (canon, _) -> (canon, canon)) Hydra.Config.fields

let canonical_axis name =
  match List.assoc_opt name axis_names with
  | Some canon -> canon
  | None ->
      fail
        (Printf.sprintf "unknown grid axis %S (expected one of: %s)" name
           (String.concat ", "
              (List.map snd Hydra.Config.short_names)))

let parse_axis spec =
  match String.index_opt spec '=' with
  | None ->
      fail
        (Printf.sprintf "malformed grid spec %S (expected axis=v1,v2,...)" spec)
  | Some i ->
      let name = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let values =
        List.map
          (fun v ->
            match int_of_string_opt (String.trim v) with
            | Some n -> n
            | None ->
                fail
                  (Printf.sprintf "grid axis %s: %S is not an integer" name v))
          (String.split_on_char ',' rest)
      in
      if values = [] then fail (Printf.sprintf "grid axis %s has no values" name);
      { field = canonical_axis (String.trim name); values }

let parse_grid specs =
  let axes = List.map parse_axis specs in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a.field then
        fail (Printf.sprintf "grid axis %s given twice" a.field);
      Hashtbl.add seen a.field ())
    axes;
  axes

let set_field (c : Hydra.Config.t) field v : Hydra.Config.t =
  match field with
  | "comparator_banks" -> { c with comparator_banks = v }
  | "heap_ts_fifo_lines" -> { c with heap_ts_fifo_lines = v }
  | "cacheline_ts_lines" -> { c with cacheline_ts_lines = v }
  | "local_ts_slots" -> { c with local_ts_slots = v }
  | "load_buffer_lines" -> { c with load_buffer_lines = v }
  | "store_buffer_lines" -> { c with store_buffer_lines = v }
  | "line_words" -> { c with line_words = v }
  | "loop_startup" -> { c with loop_startup = v }
  | "loop_shutdown" -> { c with loop_shutdown = v }
  | "loop_eoi" -> { c with loop_eoi = v }
  | "violation_restart" -> { c with violation_restart = v }
  | "store_load_communication" -> { c with store_load_communication = v }
  | "num_cpus" -> { c with num_cpus = v }
  | _ -> fail ("unknown config field " ^ field)

(* Cartesian product in deterministic row-major order: the first axis
   varies slowest, the last fastest; values in their listed order. *)
let points axes =
  let expand acc axis =
    List.concat_map
      (fun c -> List.map (fun v -> set_field c axis.field v) axis.values)
      acc
  in
  List.map Hydra.Config.validate
    (List.fold_left expand [ Hydra.Config.default ] axes)

(* The default machine is always evaluated as the reference column;
   grid points that coincide with it (or with each other) collapse. *)
let configs_of_grid axes =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun c ->
      let fp = Hydra.Config.fingerprint c in
      if Hashtbl.mem seen fp then false
      else begin
        Hashtbl.add seen fp ();
        true
      end)
    (Hydra.Config.default :: points axes)

(* ---------------- sweep over a trace archive ---------------- *)

type cell = {
  workload : string;
  summary : Report_summary.t;
  chosen_stls : int list;
}

type point_result = {
  config : Hydra.Config.t;
  fingerprint : string;
  label : string;
  cells : cell list; (* archive record order *)
}

type flip = {
  flip_workload : string;
  flip_label : string;
  flip_fingerprint : string;
  default_chosen : int list;
  chosen : int list;
  default_speedup : float;
  speedup : float;
}

type t = {
  archive : string;
  points : point_result list; (* default first, then grid order *)
  flips : flip list;
}

let cell_of_outcome (o : Replay.outcome) =
  {
    workload = o.Replay.name;
    summary = o.Replay.replayed;
    chosen_stls = o.Replay.chosen_stls;
  }

let eval_record ~src configs entry =
  let p = Replay.replay_entry_points ~hws:configs ~src entry in
  (List.map cell_of_outcome p.Replay.outcomes, Replay.work_event p)

let eval_cell ~src config entry =
  cell_of_outcome (Replay.replay_entry ~hw:config ~src entry)

let find_flips points =
  match points with
  | [] | [ _ ] -> []
  | def :: rest ->
      List.concat_map
        (fun p ->
          List.concat_map
            (fun (c : cell) ->
              match
                List.find_opt
                  (fun (d : cell) -> d.workload = c.workload)
                  def.cells
              with
              | Some d when d.chosen_stls <> c.chosen_stls ->
                  [
                    {
                      flip_workload = c.workload;
                      flip_label = p.label;
                      flip_fingerprint = p.fingerprint;
                      default_chosen = d.chosen_stls;
                      chosen = c.chosen_stls;
                      default_speedup =
                        d.summary.Report_summary.predicted_speedup;
                      speedup = c.summary.Report_summary.predicted_speedup;
                    };
                  ]
              | _ -> [])
            p.cells)
        rest

(* The (config point × record) cells, config-major: the order
   [assemble] regroups. *)
let cell_tasks configs entries =
  List.concat_map (fun c -> List.map (fun e -> (c, e)) entries) configs

(* Regroup a flat config-major cell list (the [cell_tasks] order) into
   per-point results: each config point owns the next [records] cells,
   in archive record order — exactly what eval-point-at-a-time built.
   Reached through [assemble_records] by [run] and the daemon's explore
   plan, which evaluate the same record tasks. *)
let assemble ~archive ~configs ~records cells =
  let rec take n l =
    if n = 0 then ([], l)
    else
      match l with
      | [] -> fail "internal: cell count mismatch"
      | x :: tl ->
          let a, b = take (n - 1) tl in
          (x :: a, b)
  in
  let rest = ref cells in
  let points =
    List.map
      (fun config ->
        let mine, tl = take records !rest in
        rest := tl;
        {
          config;
          fingerprint = Hydra.Config.fingerprint config;
          label = Hydra.Config.label config;
          cells = mine;
        })
      configs
  in
  if !rest <> [] then fail "internal: cell count mismatch";
  { archive; points; flips = find_flips points }

(* Per-record cell lists (each in [configs] order, records in archive
   order) transposed into the config-major [cell_tasks] order. *)
let assemble_records ~archive ~configs per_record =
  let rows = Array.of_list (List.map Array.of_list per_record) in
  let width = List.length configs in
  if Array.exists (fun r -> Array.length r <> width) rows then
    fail "internal: cell count mismatch";
  assemble ~archive ~configs ~records:(Array.length rows)
    (List.concat
       (List.init width (fun i ->
            Array.to_list (Array.map (fun r -> r.(i)) rows))))

(* A decode costs its event count once per fused tracer it feeds, so
   these weights put a dominant record first and coalesce tiny ones. *)
let record_weight ~src configs (e : Trace_store.Index.entry) =
  float_of_int
    (e.Trace_store.Index.events
    * List.length (Replay.entry_fusion_groups ~src e configs))

let run ?jobs ~grid ~path () =
  let configs = configs_of_grid (parse_grid grid) in
  let jobs =
    match jobs with Some n -> max 1 n | None -> Scheduler.default_jobs ()
  in
  (* map the archive once; workers inherit the read-only pages across
     fork, so a record's handoff is just the index entry's (offset,
     length) — no per-task container open or header read *)
  let src = Trace_store.Bytesrc.map_file path in
  let per_record =
    Scheduler.map_adaptive ~jobs
      ~label:(fun _ (e : Trace_store.Index.entry) ->
        "record " ^ e.Trace_store.Index.name)
      ~weights:(fun _ e -> record_weight ~src configs e)
      (fun _ entry -> fst (eval_record ~src configs entry))
      (Trace_store.Index.of_src src)
  in
  assemble_records ~archive:path ~configs per_record

let default_point t =
  match t.points with
  | d :: _ -> d
  | [] -> fail "no config points evaluated"

let default_summaries t =
  List.map (fun c -> c.summary) (default_point t).cells

let workloads t = List.map (fun c -> c.workload) (default_point t).cells

(* ---------------- rendering ---------------- *)

let ints l = String.concat "," (List.map string_of_int l)

(* verdict/speedup matrix: one row per workload, one column per config;
   a cell is "chosen-STL-count @ predicted-speedup", with "*" marking a
   chosen-set change vs the default column *)
let matrix_rows t =
  let def = default_point t in
  List.map
    (fun name ->
      let cell_of p =
        match List.find_opt (fun (c : cell) -> c.workload = name) p.cells with
        | None -> "-"
        | Some c ->
            let flip =
              match
                List.find_opt (fun (d : cell) -> d.workload = name) def.cells
              with
              | Some d -> d.chosen_stls <> c.chosen_stls
              | None -> false
            in
            Printf.sprintf "%d@%.2f%s"
              (c.summary.Report_summary.selected_stls)
              c.summary.Report_summary.predicted_speedup
              (if flip then "*" else "")
      in
      name :: List.map cell_of t.points)
    (workloads t)

let render t =
  let header = "Benchmark" :: List.map (fun p -> p.label) t.points in
  let aligns =
    Util.Text_table.Left :: List.map (fun _ -> Util.Text_table.Right) t.points
  in
  let matrix = Util.Text_table.render ~aligns ~header (matrix_rows t) in
  let flips =
    if t.flips = [] then
      "verdict flips vs default: none\n"
    else
      Util.Text_table.render
        ~aligns:Util.Text_table.[ Left; Left; Right; Right; Right; Right ]
        ~header:
          [
            "Benchmark"; "Config"; "Default STLs"; "STLs"; "Default speedup";
            "Speedup";
          ]
        (List.map
           (fun f ->
             [
               f.flip_workload;
               f.flip_label;
               ints f.default_chosen;
               ints f.chosen;
               Printf.sprintf "%.2f" f.default_speedup;
               Printf.sprintf "%.2f" f.speedup;
             ])
           t.flips)
  in
  Printf.sprintf
    "%s\n%d config point(s) x %d workload(s) replayed from %s\n(cells: \
     selected STLs @ predicted speedup; * = chosen set differs from \
     default)\n\n%s"
    matrix
    (List.length t.points)
    (List.length (workloads t))
    t.archive flips

(* ---------------- machine-readable matrix ---------------- *)

let to_json t =
  let cell_json (c : cell) =
    Obs.Json.Obj
      [
        ("summary", Report_summary.to_json c.summary);
        ("chosen_stls", Obs.Json.List (List.map (fun s -> Obs.Json.Int s) c.chosen_stls));
      ]
  in
  let point_json p =
    Obs.Json.Obj
      [
        ("fingerprint", Obs.Json.String p.fingerprint);
        ("label", Obs.Json.String p.label);
        ("config", Hydra.Config.to_json p.config);
        ("cells", Obs.Json.List (List.map cell_json p.cells));
      ]
  in
  let flip_json f =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String f.flip_workload);
        ("label", Obs.Json.String f.flip_label);
        ("fingerprint", Obs.Json.String f.flip_fingerprint);
        ( "default_chosen",
          Obs.Json.List (List.map (fun s -> Obs.Json.Int s) f.default_chosen) );
        ("chosen", Obs.Json.List (List.map (fun s -> Obs.Json.Int s) f.chosen));
        ("default_speedup", Obs.Json.Float f.default_speedup);
        ("speedup", Obs.Json.Float f.speedup);
      ]
  in
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int 1);
      ("archive", Obs.Json.String t.archive);
      ( "workloads",
        Obs.Json.List
          (List.map (fun w -> Obs.Json.String w) (workloads t)) );
      ("points", Obs.Json.List (List.map point_json t.points));
      ("flips", Obs.Json.List (List.map flip_json t.flips));
    ]

(* The inverse of [to_json]. Cells carry no workload name on the wire:
   each point's cells are in archive record order, which is the order
   of the top-level "workloads" list. *)
let of_json json =
  let open Obs.Json in
  let field key j =
    match member key j with
    | Some v -> v
    | None -> fail ("matrix JSON is missing field " ^ key)
  in
  let conv what f key j =
    match f (field key j) with
    | Some v -> v
    | None -> fail (Printf.sprintf "matrix JSON field %s is not %s" key what)
  in
  let str = conv "a string" to_string_opt in
  let num = conv "a number" to_float in
  let list = conv "a list" to_list in
  let elems what f key j =
    List.map
      (fun v ->
        match f v with
        | Some x -> x
        | None -> fail (Printf.sprintf "matrix JSON field %s holds %s" key what))
      (list key j)
  in
  let ints = elems "a non-integer" to_int in
  if conv "an integer" to_int "schema_version" json <> 1 then
    fail "unsupported matrix JSON schema_version";
  let workloads = elems "a non-string" to_string_opt "workloads" json in
  let point p =
    let cells = list "cells" p in
    if List.length cells <> List.length workloads then
      fail "matrix JSON point does not cover every workload";
    {
      config = Hydra.Config.of_json (field "config" p);
      fingerprint = str "fingerprint" p;
      label = str "label" p;
      cells =
        List.map2
          (fun workload c ->
            {
              workload;
              summary = Report_summary.of_json (field "summary" c);
              chosen_stls = ints "chosen_stls" c;
            })
          workloads cells;
    }
  in
  let flip f =
    {
      flip_workload = str "workload" f;
      flip_label = str "label" f;
      flip_fingerprint = str "fingerprint" f;
      default_chosen = ints "default_chosen" f;
      chosen = ints "chosen" f;
      default_speedup = num "default_speedup" f;
      speedup = num "speedup" f;
    }
  in
  {
    archive = str "archive" json;
    points = List.map point (list "points" json);
    flips = List.map flip (list "flips" json);
  }
