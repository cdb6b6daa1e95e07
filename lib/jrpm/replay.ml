type outcome = {
  name : string;
  recorded : Report_summary.t;
  replayed : Report_summary.t;
  chosen_stls : int list;
  matches : bool;
  events : int;
  record_bytes : int;
  reference_bytes : int;
}

let fail what = failwith ("Jrpm.Replay: " ^ what)

(* ---------------- tracer-config codec ---------------- *)

let config_to_json (c : Test_core.Tracer.config) =
  let open Obs.Json in
  Obj
    [
      ("banks", Int c.banks);
      ("heap_fifo_lines", Int c.heap_fifo_lines);
      ("ld_dedup_entries", Int c.ld_dedup_entries);
      ("st_dedup_entries", Int c.st_dedup_entries);
      ("local_slots", Int c.local_slots);
      ("ld_limit", Int c.ld_limit);
      ("st_limit", Int c.st_limit);
      ("line_words", Int c.line_words);
      ( "max_entries_per_stl",
        match c.max_entries_per_stl with None -> Null | Some n -> Int n );
      ( "release_overflowing",
        match c.release_overflowing with
        | None -> Null
        | Some (entries, freq) -> List [ Int entries; Float freq ] );
    ]

let config_of_json json : Test_core.Tracer.config =
  let int key =
    match Option.bind (Obs.Json.member key json) Obs.Json.to_int with
    | Some v -> v
    | None -> fail ("missing or mistyped tracer_config field " ^ key)
  in
  {
    banks = int "banks";
    heap_fifo_lines = int "heap_fifo_lines";
    ld_dedup_entries = int "ld_dedup_entries";
    st_dedup_entries = int "st_dedup_entries";
    local_slots = int "local_slots";
    ld_limit = int "ld_limit";
    st_limit = int "st_limit";
    line_words = int "line_words";
    max_entries_per_stl =
      (match Obs.Json.member "max_entries_per_stl" json with
      | Some (Obs.Json.Int n) -> Some n
      | Some Obs.Json.Null | None -> None
      | Some _ -> fail "mistyped tracer_config field max_entries_per_stl");
    release_overflowing =
      (match Obs.Json.member "release_overflowing" json with
      | Some (Obs.Json.List [ e; f ]) -> (
          match (Obs.Json.to_int e, Obs.Json.to_float f) with
          | Some e, Some f -> Some (e, f)
          | _ -> fail "mistyped tracer_config field release_overflowing")
      | Some Obs.Json.Null | None -> None
      | Some _ -> fail "mistyped tracer_config field release_overflowing");
  }

(* ---------------- capture side ---------------- *)

let meta_of_report ?tracer_config ?cpus ~writer (r : Pipeline.report) =
  let config =
    match tracer_config with
    | Some c -> c
    | None -> Test_core.Tracer.config_of r.Pipeline.hw
  in
  Obs.Json.Obj
    [
      ("summary", Report_summary.to_json (Report_summary.of_report r));
      ("hw_config", Hydra.Config.to_json r.Pipeline.hw);
      ("tracer_config", config_to_json config);
      ("cpus", match cpus with None -> Obs.Json.Null | Some n -> Obs.Json.Int n);
      ("events", Obs.Json.Int (Trace_store.Writer.events writer));
      ( "reference_bytes",
        Obs.Json.Int (Trace_store.Writer.reference_bytes writer) );
    ]

let capture_run ?hw ?tracer_config ?cpus ?fuel ?sync ?obs ~name src =
  let writer = Trace_store.Writer.create () in
  let report =
    Pipeline.run ?hw ?tracer_config ?cpus ?fuel ?sync ?obs ~capture:writer
      ~name src
  in
  let meta = meta_of_report ?tracer_config ?cpus ~writer report in
  (report, Trace_store.Writer.finish ~name ~meta writer)

(* ---------------- replay side ---------------- *)

(* Everything replay needs from a record's metadata besides the stream. *)
type meta = {
  recorded : Report_summary.t;
  recorded_hw : Hydra.Config.t;
  recorded_config : Test_core.Tracer.config;
  cpus : int option;
  reference_bytes : int;
}

let meta_of_record (record : Trace_store.Reader.record) =
  let meta = record.Trace_store.Reader.meta in
  let member key =
    match Obs.Json.member key meta with
    | Some v -> v
    | None -> fail ("record metadata is missing field " ^ key)
  in
  {
    recorded = Report_summary.of_json (member "summary");
    recorded_config = config_of_json (member "tracer_config");
    (* records written before the hardware model became a value carry
       no hw_config; they described the default machine *)
    recorded_hw =
      (match Obs.Json.member "hw_config" meta with
      | Some j -> Hydra.Config.of_json j
      | None -> Hydra.Config.default);
    cpus =
      (match member "cpus" with
      | Obs.Json.Null -> None
      | j -> (
          match Obs.Json.to_int j with
          | Some n -> Some n
          | None -> fail "mistyped metadata field cpus"));
    reference_bytes =
      (match Obs.Json.to_int (member "reference_bytes") with
      | Some n -> n
      | None -> fail "mistyped metadata field reference_bytes");
  }

(* The recorded config replays the recorded machine; any other point
   re-derives the tracer geometry from that machine, keeping the
   recorded policy fields. *)
let effective_config ~recorded_hw ~recorded hw =
  if Hydra.Config.equal hw recorded_hw then recorded
  else Test_core.Tracer.config_of ~base:recorded hw

(* Group configs by [Tracer.fusion_key], groups and members in
   first-use order. *)
let group_by_key configs =
  let keys =
    List.fold_left
      (fun acc c ->
        let k = Test_core.Tracer.fusion_key c in
        if List.mem k acc then acc else k :: acc)
      [] configs
  in
  List.rev_map
    (fun k ->
      List.filter (fun c -> Test_core.Tracer.fusion_key c = k) configs)
    keys

let fusion_groups ~recorded_hw ~recorded hws =
  group_by_key
    (List.rev
       (List.fold_left
          (fun acc hw ->
            let c = effective_config ~recorded_hw ~recorded hw in
            if List.mem c acc then acc else c :: acc)
          [] hws))

type points = {
  outcomes : outcome list;
  tracer_runs : int;
  splits : int;
  decoded_events : int;
  decoded_bytes : int;
  tracer_events : int;
}

let replay_traced reader sink =
  try Trace_store.Reader.replay reader sink
  with Test_core.Tracer.Bad_operand msg ->
    raise (Trace_store.Reader.Corrupt msg)

(* Decode the current record once into one fused tracer per group. *)
let decode reader groups =
  let runs =
    List.map (fun g -> (g, Test_core.Tracer.create_fused g)) groups
  in
  let sink =
    match List.map (fun (_, t) -> Test_core.Tracer.sink t) runs with
    | [] -> invalid_arg "Jrpm.Replay: no hardware points"
    | first :: rest -> List.fold_left Hydra.Trace.tee first rest
  in
  let stats = replay_traced reader sink in
  List.iter
    (fun (_, tracer) ->
      if
        Test_core.Tracer.events_consumed tracer
        <> stats.Trace_store.Reader.events
      then fail "tracer event-tap count disagrees with the decoder")
    runs;
  (stats, runs)

(* One decode of the current record feeds one fused tracer per fusion
   group among [hws]. A run whose pairs disagree on a bank release
   keeps pair 0's answer; the departed configs form a new group, and
   the record is decoded again for all such groups until no run
   splits. The Eq. 1 / Eq. 2 analysis then runs once per point over the
   run and pair that served its config. *)
let replay_meta m ~hws reader (record : Trace_store.Reader.record) =
  let effective =
    effective_config ~recorded_hw:m.recorded_hw ~recorded:m.recorded_config
  in
  let offset = Trace_store.Reader.record_offset reader in
  (* [served]: each config with the run and limit pair that served it;
     [passes]: every decode of the record, latest first *)
  let rec settle served passes ((_, runs) as pass) =
    let served =
      served
      @ List.concat_map
          (fun (g, tracer) ->
            let gone = Test_core.Tracer.departed tracer in
            List.filteri
              (fun k _ -> not (List.mem k gone))
              (List.mapi (fun k c -> (c, (tracer, k))) g))
          runs
    in
    match
      List.filter_map
        (fun (g, tracer) ->
          match Test_core.Tracer.departed tracer with
          | [] -> None
          | gone -> Some (List.map (List.nth g) gone))
        runs
    with
    | [] -> (served, pass :: passes)
    | split ->
        ignore (Trace_store.Reader.seek_record reader ~offset);
        settle served (pass :: passes) (decode reader split)
  in
  let groups =
    fusion_groups ~recorded_hw:m.recorded_hw ~recorded:m.recorded_config hws
  in
  let ((stats, _) as first) = decode reader groups in
  let served, passes = settle [] [] first in
  let sum f = List.fold_left (fun acc pass -> acc + f pass) 0 passes in
  let tracer_runs = sum (fun (_, runs) -> List.length runs) in
  let json s = Obs.Json.to_string (Report_summary.to_json s) in
  let recorded_json = json m.recorded in
  let outcome hw =
    let tracer, pair = List.assoc (effective hw) served in
    (* the analysis-owned fields are recomputed from the replayed
       stream; everything else the trace carries verbatim in its
       metadata *)
    let selection =
      Test_core.Analyzer.select ~config:hw ?cpus:m.cpus
        ~stats:(Test_core.Tracer.stats ~pair tracer)
        ~child_cycles:(Test_core.Tracer.child_cycles tracer)
        ~program_cycles:m.recorded.Report_summary.opt.Report_summary.cycles
        ()
    in
    let replayed =
      {
        m.recorded with
        Report_summary.config_fingerprint = Hydra.Config.fingerprint hw;
        predicted_speedup = selection.Test_core.Analyzer.predicted_speedup;
        selected_stls = List.length selection.Test_core.Analyzer.chosen;
        max_dynamic_depth = Test_core.Tracer.max_dynamic_depth tracer;
      }
    in
    {
      name = record.Trace_store.Reader.name;
      recorded = m.recorded;
      replayed;
      chosen_stls =
        List.sort compare
          (List.map
             (fun (c : Test_core.Analyzer.choice) ->
               c.Test_core.Analyzer.chosen_stl)
             selection.Test_core.Analyzer.chosen);
      matches = String.equal (json replayed) recorded_json;
      events = stats.Trace_store.Reader.events;
      record_bytes = stats.Trace_store.Reader.record_bytes;
      reference_bytes = m.reference_bytes;
    }
  in
  {
    outcomes = List.map outcome hws;
    tracer_runs;
    splits = tracer_runs - List.length groups;
    decoded_events = sum (fun (s, _) -> s.Trace_store.Reader.events);
    decoded_bytes = sum (fun (s, _) -> s.Trace_store.Reader.record_bytes);
    tracer_events =
      sum (fun (_, runs) ->
          List.fold_left
            (fun acc (_, t) -> acc + Test_core.Tracer.events_consumed t)
            0 runs);
  }

let work_event p =
  Obs.Event.Replay_work
    {
      events = p.decoded_events;
      bytes = p.decoded_bytes;
      tracer_events = p.tracer_events;
      tracer_runs = p.tracer_runs;
      splits = p.splits;
    }

let seek_entry ~src (entry : Trace_store.Index.entry) =
  let reader = Trace_store.Reader.of_src src in
  (reader,
   Trace_store.Reader.seek_record reader ~offset:entry.Trace_store.Index.offset)

let replay_entry_points ?hws ~src entry =
  let reader, record = seek_entry ~src entry in
  let m = meta_of_record record in
  let hws = Option.value hws ~default:[ m.recorded_hw ] in
  replay_meta m ~hws reader record

let replay_entry ?hw ~src entry =
  let hws = Option.map (fun hw -> [ hw ]) hw in
  match (replay_entry_points ?hws ~src entry).outcomes with
  | [ o ] -> o
  | _ -> assert false

let entry_fusion_groups ~src entry hws =
  let m = meta_of_record (snd (seek_entry ~src entry)) in
  fusion_groups ~recorded_hw:m.recorded_hw ~recorded:m.recorded_config hws
