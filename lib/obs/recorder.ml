type t = {
  max_events : int;
  mutable log : Event.t list; (* reversed *)
  mutable kept : int;
  mutable dropped : int;
  reg : Metrics.t;
  (* (phase, spans, total_s) in reverse first-begin order *)
  mutable phases : (string * int ref * float ref) list;
}

let schema_version = 1

let record t (e : Event.t) =
  match e with
  | Event.Tls_work { passes; steps; run_ahead } ->
      (* work counters, not an event of the log *)
      Metrics.incr t.reg "tls.passes" ~by:passes;
      Metrics.incr t.reg "tls.steps" ~by:steps;
      Metrics.incr t.reg "tls.run_ahead" ~by:run_ahead
  | Event.Interp_work { instructions } ->
      Metrics.incr t.reg "interp.instructions" ~by:instructions
  | Event.Replay_work { events; bytes; tracer_events; tracer_runs; splits } ->
      Metrics.incr t.reg "trace_store.events" ~by:events;
      Metrics.incr t.reg "trace_store.bytes" ~by:bytes;
      Metrics.incr t.reg "tracer.events" ~by:tracer_events;
      Metrics.incr t.reg "replay.tracer_runs" ~by:tracer_runs;
      Metrics.incr t.reg "replay.splits" ~by:splits
  | _ ->
      Metrics.incr t.reg ("events." ^ Event.label e);
      (match e with
      | Event.Phase_end { phase; span_s; _ } ->
          Metrics.observe t.reg ("phase." ^ phase ^ ".seconds") span_s;
          let spans, total =
            match
              List.find_opt (fun (name, _, _) -> name = phase) t.phases
            with
            | Some (_, spans, total) -> (spans, total)
            | None ->
                let spans = ref 0 and total = ref 0. in
                t.phases <- (phase, spans, total) :: t.phases;
                (spans, total)
          in
          incr spans;
          total := !total +. span_s
      | _ -> ());
      if t.kept < t.max_events then begin
        t.log <- e :: t.log;
        t.kept <- t.kept + 1
      end
      else t.dropped <- t.dropped + 1

let create ?(max_events = 10_000) () =
  let t =
    {
      max_events;
      log = [];
      kept = 0;
      dropped = 0;
      reg = Metrics.create ();
      phases = [];
    }
  in
  (* pre-seed every event counter at zero: dumps keep a stable shape
     whether or not an event kind fired during the run *)
  List.iter
    (fun label -> Metrics.incr ~by:0 t.reg ("events." ^ label))
    Event.all_labels;
  t

let sink t = Sink.make (record t)
let metrics t = t.reg
let events t = List.rev t.log
let dropped_events t = t.dropped

let phase_spans t =
  List.rev_map (fun (name, spans, total) -> (name, !spans, !total)) t.phases

let phase_rows t =
  let spans = phase_spans t in
  let all = List.fold_left (fun acc (_, _, s) -> acc +. s) 0. spans in
  List.map
    (fun (name, n, s) ->
      [
        name;
        string_of_int n;
        Printf.sprintf "%.6f" s;
        (if all > 0. then Printf.sprintf "%.1f%%" (100. *. s /. all) else "-");
      ])
    spans

(* Splice already-recorded events into the bounded log WITHOUT feeding
   them through [record]: their counter/phase aggregates arrive
   separately, in the merged registry, so re-recording would
   double-count. *)
let append_raw t events =
  List.iter
    (fun e ->
      if t.kept < t.max_events then begin
        t.log <- e :: t.log;
        t.kept <- t.kept + 1
      end
      else t.dropped <- t.dropped + 1)
    events

let add_phase_total t name ~spans:n ~total_s =
  let spans, total =
    match List.find_opt (fun (nm, _, _) -> nm = name) t.phases with
    | Some (_, spans, total) -> (spans, total)
    | None ->
        let spans = ref 0 and total = ref 0. in
        t.phases <- (name, spans, total) :: t.phases;
        (spans, total)
  in
  spans := !spans + n;
  total := !total +. total_s

let merge t other =
  Metrics.merge t.reg (metrics other);
  List.iter
    (fun (name, spans, total_s) -> add_phase_total t name ~spans ~total_s)
    (phase_spans other);
  t.dropped <- t.dropped + other.dropped;
  append_raw t (events other)

let to_json t =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("metrics", Metrics.to_json t.reg);
      ( "phases",
        Json.List
          (List.map
             (fun (name, spans, total_s) ->
               Json.Obj
                 [
                   ("phase", Json.String name);
                   ("spans", Json.Int spans);
                   ("total_s", Json.Float total_s);
                 ])
             (phase_spans t)) );
      ("events", Json.List (List.map Event.to_json (events t)));
      ("dropped_events", Json.Int t.dropped);
    ]
