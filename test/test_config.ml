(* The first-class hardware model: the field table covers the record,
   JSON codec round-trips, fingerprints key configs stably, and the
   explore engine finds the documented cpus=8 verdict flip when
   replaying a captured archive under a grid. *)

module C = Hydra.Config

(* ---------------- field table ---------------- *)

let test_field_table () =
  (* the field table names every record field exactly once *)
  Alcotest.(check int) "field table arity" 13 (List.length C.fields);
  Alcotest.(check int)
    "every field has a short name" (List.length C.fields)
    (List.length C.short_names)

(* ---------------- JSON codec ---------------- *)

let config_gen : C.t QCheck.Gen.t =
 fun st ->
  let size () = QCheck.Gen.int_range 1 4096 st in
  let overhead () = QCheck.Gen.int_range 0 200 st in
  {
    C.comparator_banks = size ();
    heap_ts_fifo_lines = size ();
    cacheline_ts_lines = size ();
    local_ts_slots = size ();
    load_buffer_lines = size ();
    store_buffer_lines = size ();
    line_words = size ();
    loop_startup = overhead ();
    loop_shutdown = overhead ();
    loop_eoi = overhead ();
    violation_restart = overhead ();
    store_load_communication = overhead ();
    num_cpus = size ();
  }

let arbitrary_config =
  QCheck.make ~print:(fun c -> Obs.Json.to_string (C.to_json c)) config_gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"config JSON round-trip preserves value + fingerprint"
    ~count:200 arbitrary_config (fun c ->
      let c' = C.of_json (C.to_json c) in
      C.equal c c' && String.equal (C.fingerprint c) (C.fingerprint c'))

let test_of_json_errors () =
  let fails j =
    match C.of_json j with
    | (_ : C.t) -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "missing field" true
    (fails
       (match C.to_json C.default with
       | Obs.Json.Obj kvs -> Obs.Json.Obj (List.tl kvs)
       | _ -> Alcotest.fail "to_json is not an object"));
  Alcotest.(check bool) "mistyped field" true
    (fails
       (match C.to_json C.default with
       | Obs.Json.Obj ((k, _) :: kvs) ->
           Obs.Json.Obj ((k, Obs.Json.String "8") :: kvs)
       | _ -> Alcotest.fail "to_json is not an object"))

let test_validate () =
  Alcotest.(check bool) "default validates" true
    (C.equal C.default (C.validate C.default));
  let rejects c =
    match C.validate c with
    | (_ : C.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero-size field rejected" true
    (rejects { C.default with C.comparator_banks = 0 });
  Alcotest.(check bool) "negative overhead rejected" true
    (rejects { C.default with C.loop_eoi = -1 });
  Alcotest.(check bool) "zero overhead is legal" true
    (match C.validate { C.default with C.loop_eoi = 0 } with
    | (_ : C.t) -> true
    | exception Invalid_argument _ -> false);
  (* every field has a maximum: at it is legal, past it is not *)
  let at_field name v =
    C.of_json
      (Obs.Json.Obj
         (List.map
            (fun (n, get) ->
              (n, Obs.Json.Int (if n = name then v else get C.default)))
            C.fields))
  in
  List.iter
    (fun (name, _) ->
      let max =
        match name with
        | "comparator_banks" | "line_words" | "num_cpus" -> C.width_max
        | "loop_startup" | "loop_shutdown" | "loop_eoi" | "violation_restart"
        | "store_load_communication" ->
            C.overhead_max
        | _ -> C.size_max
      in
      let max =
        if name = "heap_ts_fifo_lines" then
          min max (C.heap_history_words_max / C.default.C.line_words)
        else max
      in
      Alcotest.(check bool) (name ^ " at its maximum is legal") true
        (match at_field name max with
        | (_ : C.t) -> true
        | exception Invalid_argument _ -> false);
      match at_field name (max + 1) with
      | (_ : C.t) -> Alcotest.failf "%s past its maximum must be rejected" name
      | exception Invalid_argument msg ->
          Alcotest.(check bool) ("names the field: " ^ msg) true
            (Test_scheduler.contains ~needle:name msg))
    C.fields;
  Alcotest.(check bool) "4e9 heap history lines rejected" true
    (rejects { C.default with C.heap_ts_fifo_lines = 4_000_000_000 });
  Alcotest.(check bool) "heap history words capped jointly" true
    (rejects { C.default with C.heap_ts_fifo_lines = C.size_max; line_words = 64 });
  (* the largest geometries the docs explore stay legal *)
  Alcotest.(check bool) "ROADMAP geometry grid is legal" true
    (List.for_all
       (fun c -> not (rejects c))
       [ { C.default with C.comparator_banks = 64; heap_ts_fifo_lines = 100000;
           cacheline_ts_lines = 100000 } ])

(* ---------------- fingerprint + label ---------------- *)

let test_fingerprint () =
  Alcotest.(check string) "default_fingerprint is fingerprint default"
    (C.fingerprint C.default) C.default_fingerprint;
  Alcotest.(check int) "16 hex digits" 16 (String.length C.default_fingerprint);
  (* any single-field change alters the digest *)
  List.iter
    (fun (name, _) ->
      let bumped =
        C.of_json
          (Obs.Json.Obj
             (List.map
                (fun (n, get) ->
                  (n, Obs.Json.Int (get C.default + if n = name then 1 else 0)))
                C.fields))
      in
      Alcotest.(check bool)
        ("fingerprint changes with " ^ name)
        false
        (String.equal (C.fingerprint bumped) C.default_fingerprint))
    C.fields;
  Alcotest.(check string) "default label" "default" (C.label C.default);
  Alcotest.(check string) "diff label" "cpus=8"
    (C.label { C.default with C.num_cpus = 8 })

(* ---------------- grid parsing + cartesian product ---------------- *)

let test_grid () =
  let configs =
    Jrpm.Explore.points
      (Jrpm.Explore.parse_grid [ "cpus=2,8"; "banks=4,16" ])
  in
  Alcotest.(check int) "2x2 grid" 4 (List.length configs);
  (* row-major: the first axis varies slowest *)
  Alcotest.(check (list string))
    "grid order"
    [
      "banks=4 cpus=2"; "banks=16 cpus=2"; "banks=4 cpus=8"; "banks=16 cpus=8";
    ]
    (List.map C.label configs);
  (* the default machine is always the reference column, and grid
     points that coincide with it collapse into it *)
  let deduped =
    Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid [ "cpus=4,8" ])
  in
  Alcotest.(check (list string))
    "default column deduped" [ "default"; "cpus=8" ]
    (List.map C.label deduped);
  let rejects specs =
    match Jrpm.Explore.parse_grid specs with
    | (_ : Jrpm.Explore.axis list) -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "unknown axis" true (rejects [ "cache_ways=2" ]);
  Alcotest.(check bool) "repeated axis" true (rejects [ "cpus=2"; "cpus=4" ]);
  Alcotest.(check bool) "malformed spec" true (rejects [ "cpus" ]);
  Alcotest.(check bool) "non-integer value" true (rejects [ "cpus=two" ])

(* ---------------- explore over a captured archive ---------------- *)

(* A small capture shared by the explore tests: deltaBlue is the
   documented cpus=8 verdict flip; FourierTest and db keep their chosen
   sets at every point of the test grid; LuFactor's limit pairs disagree
   on a bank release at store_buffer=4 against 64, so a fused run of
   its record splits. *)
let explore_subset = [ "deltaBlue"; "FourierTest"; "db"; "LuFactor" ]

let captured =
  lazy
    (let workloads = List.map Workloads.Registry.find_exn explore_subset in
     let outcomes = Jrpm.Daemon.sweep ~jobs:1 ~capture:true workloads in
     let container =
       match Jrpm.Daemon.container outcomes with
       | Some c -> c
       | None -> Alcotest.fail "capture sweep produced no container"
     in
     let path = Filename.temp_file "jrpm_explore_test" ".jtrc" in
     let oc = open_out_bin path in
     output_string oc container;
     close_out oc;
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     (outcomes, path))

let test_explore_golden () =
  let outcomes, path = Lazy.force captured in
  let t = Jrpm.Explore.run ~jobs:1 ~grid:[ "cpus=8" ] ~path () in
  (* matrix shape: 2 config points (default + cpus=8) x 4 workloads *)
  Alcotest.(check int) "2 config points" 2 (List.length t.Jrpm.Explore.points);
  Alcotest.(check (list string))
    "workload rows" explore_subset
    (Jrpm.Explore.workloads t);
  let default_point = Jrpm.Explore.default_point t in
  Alcotest.(check string) "reference column is the default machine"
    C.default_fingerprint default_point.Jrpm.Explore.fingerprint;
  (* the default column is byte-identical to the interpreted sweep
     summaries — the replay-determinism invariant under explore *)
  List.iter2
    (fun (o : Jrpm.Daemon.outcome) (s : Jrpm.Report_summary.t) ->
      Alcotest.(check string)
        ("default column matches sweep: " ^ s.Jrpm.Report_summary.name)
        (Obs.Json.to_string
           (Jrpm.Report_summary.to_json o.Jrpm.Daemon.summary))
        (Obs.Json.to_string (Jrpm.Report_summary.to_json s)))
    outcomes
    (Jrpm.Explore.default_summaries t);
  (* every cell of the cpus=8 column carries that config's fingerprint *)
  let p8 = List.nth t.Jrpm.Explore.points 1 in
  Alcotest.(check string) "cpus=8 label" "cpus=8" p8.Jrpm.Explore.label;
  List.iter
    (fun (c : Jrpm.Explore.cell) ->
      Alcotest.(check string)
        ("cell fingerprint: " ^ c.Jrpm.Explore.workload)
        p8.Jrpm.Explore.fingerprint
        c.Jrpm.Explore.summary.Jrpm.Report_summary.config_fingerprint)
    p8.Jrpm.Explore.cells;
  (* fingerprint stability: a second run of the same grid produces the
     same matrix JSON apart from wall-clock-free fields — there are
     none, so the whole document is stable *)
  let t' = Jrpm.Explore.run ~jobs:1 ~grid:[ "cpus=8" ] ~path () in
  Alcotest.(check string) "matrix JSON is stable across runs"
    (Obs.Json.to_string (Jrpm.Explore.to_json t))
    (Obs.Json.to_string (Jrpm.Explore.to_json t'))

(* The verdict-flip regression case: at cpus=8, Eq. 2 stops nesting
   deltaBlue's outer loop (the f_none * p term grows with p), so the
   chosen STL set changes from {1,2} to {0,1} while FourierTest and db
   keep theirs. Pinned so an analyzer or config-threading change that
   silently stops responding to num_cpus fails loudly. *)
(* An over-maximum grid point is a usage error before any table is
   allocated: exit 2 with the field named, not an out-of-memory crash. *)
let test_explore_over_max_grid () =
  let jrpm = "../bin/jrpm_cli.exe" in
  if Sys.file_exists jrpm then begin
    let _, path = Lazy.force captured in
    let errfile = Filename.temp_file "jrpm_explore_max" ".err" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove errfile with Sys_error _ -> ())
      (fun () ->
        let code =
          Sys.command
            (Printf.sprintf "%s explore %s heap_ts_fifo_lines=4000000000 >/dev/null 2>%s"
               jrpm (Filename.quote path) (Filename.quote errfile))
        in
        Alcotest.(check int) "exit 2" 2 code;
        Alcotest.(check string) "the message"
          "jrpm: Hydra.Config: heap_ts_fifo_lines must be at most 1048576 (got \
           4000000000)\n"
          (In_channel.with_open_bin errfile In_channel.input_all))
  end

(* Well-formed containers (valid checksums) whose one record carries a
   captured record's metadata and an operand the tracer cannot index:
   replay and explore fail with the typed corrupt-container error at
   every jobs count, in process and through the CLI (exit 1). *)
let hostile_operand_cases =
  let module E = Trace_store.Event in
  let in_loop ?(stl = 0) body =
    (E.Sloop { stl; nlocals = 1; frame = 1; now = 0 } :: body)
    @ [ E.Eoi { stl; now = 10 }; E.Eloop { stl; now = 11 } ]
  in
  [
    ( in_loop [ E.Heap_load { addr = -5; pc = 1; now = 1 } ],
      "Tracer: negative heap address -5" );
    ( in_loop [ E.Heap_store { addr = min_int; now = 1 } ],
      Printf.sprintf "Tracer: negative heap address %d" min_int );
    ( in_loop [ E.Local_store { frame = -1; slot = 0; now = 1 } ],
      Printf.sprintf "Tracer: frame -1 outside [0, %d]" (max_int lsr 20) );
    ( in_loop [ E.Local_load { frame = max_int; slot = 0; pc = 1; now = 1 } ],
      Printf.sprintf "Tracer: frame %d outside [0, %d]" max_int
        (max_int lsr 20) );
    ( in_loop [ E.Local_load { frame = 1; slot = 1 lsl 20; pc = 1; now = 1 } ],
      "Tracer: local slot 1048576 outside [0, 1048576)" );
    ( in_loop [ E.Local_store { frame = 1; slot = 0; now = -3 } ],
      "Tracer: negative local store timestamp -3" );
    ( in_loop ~stl:(1 lsl 20) [],
      "Tracer: STL pair (-1, 1048576) outside [-1, 1048576)" );
  ]

let with_hostile_container events f =
  let _, path = Lazy.force captured in
  let r = Trace_store.Reader.of_src (Trace_store.Bytesrc.map_file path) in
  let { Trace_store.Reader.name; meta } =
    Option.get (Trace_store.Reader.next_record r)
  in
  let w = Trace_store.Writer.create () in
  List.iter (Trace_store.Event.apply (Trace_store.Writer.sink w)) events;
  let record = Trace_store.Writer.finish ~name ~meta w in
  let file = Filename.temp_file "jrpm_hostile" ".jtrc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Trace_store.Writer.to_file ~path:file [ record ];
      f file)

let test_hostile_operands () =
  List.iter
    (fun (events, msg) ->
      with_hostile_container events (fun path ->
          List.iter
            (fun jobs ->
              List.iter
                (fun (what, req) ->
                  Alcotest.check_raises
                    (Printf.sprintf "%s at jobs=%d: %s" what jobs msg)
                    (Trace_store.Reader.Corrupt msg)
                    (fun () ->
                      ignore
                        (Jrpm.Daemon.execute ~jobs (Jrpm.Daemon.Request req))))
                [
                  ("replay", Jrpm.Daemon.Replay { path; record = None });
                  ("explore", Jrpm.Daemon.Explore { path; grid = [] });
                ])
            [ 1; 2 ]))
    hostile_operand_cases;
  let jrpm = "../bin/jrpm_cli.exe" in
  if Sys.file_exists jrpm then
    let events, msg = List.hd hostile_operand_cases in
    with_hostile_container events (fun path ->
        let errfile = Filename.temp_file "jrpm_hostile" ".err" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove errfile with Sys_error _ -> ())
          (fun () ->
            List.iter
              (fun cmd ->
                let code =
                  Sys.command
                    (Printf.sprintf "%s %s %s >/dev/null 2>%s" jrpm cmd
                       (Filename.quote path) (Filename.quote errfile))
                in
                Alcotest.(check (pair int string))
                  (cmd ^ ": exit 1, typed message")
                  (1, "jrpm: corrupt trace container: " ^ msg ^ "\n")
                  (code, In_channel.with_open_bin errfile In_channel.input_all))
              [
                "trace replay --jobs 1"; "trace replay --jobs 2";
                "explore --jobs 1"; "explore --jobs 2";
              ]))

let test_explore_verdict_flip () =
  let _, path = Lazy.force captured in
  let t = Jrpm.Explore.run ~jobs:1 ~grid:[ "cpus=8" ] ~path () in
  match t.Jrpm.Explore.flips with
  | [ f ] ->
      Alcotest.(check string) "flip workload" "deltaBlue"
        f.Jrpm.Explore.flip_workload;
      Alcotest.(check string) "flip config" "cpus=8" f.Jrpm.Explore.flip_label;
      Alcotest.(check (list int)) "default chosen STLs" [ 1; 2 ]
        f.Jrpm.Explore.default_chosen;
      Alcotest.(check (list int)) "cpus=8 chosen STLs" [ 0; 1 ]
        f.Jrpm.Explore.chosen;
      Alcotest.(check bool) "speedup responds to p" true
        (f.Jrpm.Explore.speedup > f.Jrpm.Explore.default_speedup)
  | flips ->
      Alcotest.failf "expected exactly the deltaBlue flip, got %d flips"
        (List.length flips)

(* Explore fans out one scheduler task per (config point x record);
   regrouping must put every cell back in grid x archive order, so the
   matrix JSON is byte-identical at any worker count. *)
let test_explore_jobs_identity () =
  let _, path = Lazy.force captured in
  let json jobs =
    Obs.Json.to_string
      (Jrpm.Explore.to_json
         (Jrpm.Explore.run ~jobs ~grid:[ "cpus=8" ] ~path ()))
  in
  let j1 = json 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "explore JSON identical at jobs=%d" jobs)
        j1 (json jobs))
    [ 4; 16 ]

(* The matrix document is what a daemon client receives; it renders
   through [of_json], so decoding must lose nothing [render] or the
   default-column summaries need — on a grid with a verdict flip, and
   through the serialized bytes as well as the tree. *)
let test_explore_json_roundtrip () =
  let _, path = Lazy.force captured in
  let t = Jrpm.Explore.run ~jobs:1 ~grid:[ "cpus=8" ] ~path () in
  Alcotest.(check bool) "the grid flips a verdict" true
    (t.Jrpm.Explore.flips <> []);
  let j = Jrpm.Explore.to_json t in
  let summaries t =
    Obs.Json.to_string
      (Obs.Json.List
         (List.map Jrpm.Report_summary.to_json
            (Jrpm.Explore.default_summaries t)))
  in
  List.iter
    (fun (what, t') ->
      Alcotest.(check string) (what ^ ": to_json") (Obs.Json.to_string j)
        (Obs.Json.to_string (Jrpm.Explore.to_json t'));
      Alcotest.(check string) (what ^ ": render") (Jrpm.Explore.render t)
        (Jrpm.Explore.render t');
      Alcotest.(check string) (what ^ ": default summaries") (summaries t)
        (summaries t'))
    [
      ("tree", Jrpm.Explore.of_json j);
      ( "bytes",
        Jrpm.Explore.of_json (Obs.Json.parse_exn (Obs.Json.to_string j)) );
    ];
  List.iter
    (fun (what, doc) ->
      match Jrpm.Explore.of_json doc with
      | _ -> Alcotest.failf "%s must be rejected" what
      | exception Failure _ -> ())
    [
      ("an empty object", Obs.Json.Obj []);
      ( "workloads that do not match the cells",
        match j with
        | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "workloads" then
                     (k, Obs.Json.List [ Obs.Json.String "extra" ])
                   else (k, v))
                 fields)
        | _ -> Alcotest.fail "matrix JSON is not an object" );
    ]

(* ---------------- one decode per record, one tracer per fusion group *)

let explore_json t = Obs.Json.to_string (Jrpm.Explore.to_json t)

(* The cell-at-a-time reference: every (point x record) cell replayed
   on its own, through its own tracer. *)
let cell_at_a_time ~grid path =
  let configs = Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid grid) in
  let src = Trace_store.Bytesrc.map_file path in
  let entries = Trace_store.Index.of_src src in
  Jrpm.Explore.assemble ~archive:path ~configs
    ~records:(List.length entries)
    (List.map
       (fun (config, entry) -> Jrpm.Explore.eval_cell ~src config entry)
       (Jrpm.Explore.cell_tasks configs entries))

(* Per-record tasks sharing tracers must reproduce the cell-at-a-time
   matrix byte for byte, whether the grid mixes tracer-neutral axes
   (cpus, restart) with geometry axes (store_buffer, banks), has only
   tracer-neutral ones, or has only limit points that fuse into one run
   and split it. *)
let test_explore_matches_cell_at_a_time () =
  let _, path = Lazy.force captured in
  List.iter
    (fun grid ->
      let reference = explore_json (cell_at_a_time ~grid path) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs=%d = cell-at-a-time"
               (String.concat " " grid) jobs)
            reference
            (explore_json (Jrpm.Explore.run ~jobs ~grid ~path ())))
        [ 1; 3 ])
    [
      (* store_buffer=2 changes db's verdict, so a point analysed over
         another geometry's tracer shows *)
      [ "cpus=2,8"; "restart=20"; "store_buffer=2,64"; "banks=1" ];
      [ "cpus=2,8"; "restart=20,40" ];
      [ "store_buffer=4,16,64" ];
    ];
  (* one fused run per record where the limit pairs agree on every
     release; LuFactor's pairs disagree at store_buffer=4, so its record
     is decoded again for the pair that departed *)
  let src = Trace_store.Bytesrc.map_file path in
  let runs grid (e : Trace_store.Index.entry) =
    let configs =
      Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid grid)
    in
    (Jrpm.Replay.replay_entry_points ~hws:configs ~src e)
      .Jrpm.Replay.tracer_runs
  in
  List.iter
    (fun (e : Trace_store.Index.entry) ->
      let name = e.Trace_store.Index.name in
      Alcotest.(check int)
        ("store_buffer=32,64,128 runs: " ^ name)
        1
        (runs [ "store_buffer=32,64,128" ] e);
      let split = runs [ "store_buffer=4,16,64" ] e in
      if name = "LuFactor" then
        Alcotest.(check bool)
          (Printf.sprintf "LuFactor splits at store_buffer=4 (%d runs)" split)
          true (split > 1)
      else Alcotest.(check int) ("store_buffer=4,16,64 runs: " ^ name) 1 split)
    (Trace_store.Index.of_src src)

let default_geometry = Test_core.Tracer.config_of C.default

(* A record captured under a tracer config that is not [config_of] its
   machine: the default column must still replay under the recorded
   config, and a cpus-only point — tracer-neutral against the machine —
   must get its own tracer, re-derived from the machine (the two differ
   in heap_fifo_lines, so they cannot fuse). *)
let test_explore_recorded_geometry () =
  let recorded =
    { default_geometry with Test_core.Tracer.heap_fifo_lines = 4; st_limit = 4 }
  in
  let w = Workloads.Registry.find_exn "deltaBlue" in
  let report, record =
    Jrpm.Replay.capture_run ~tracer_config:recorded ~name:"deltaBlue"
      (Workloads.Registry.default_source w)
  in
  let path = Filename.temp_file "jrpm_explore_geometry" ".jtrc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace_store.Writer.to_file ~path [ record ];
      let grid = [ "cpus=8" ] in
      let configs =
        Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid grid)
      in
      let src = Trace_store.Bytesrc.map_file path in
      let entry = List.hd (Trace_store.Index.of_src src) in
      let expected =
        [
          [ recorded ];
          [ Test_core.Tracer.config_of ~base:recorded (List.nth configs 1) ];
        ]
      in
      Alcotest.(check bool) "two points, two tracers" true
        (Jrpm.Replay.entry_fusion_groups ~src entry configs = expected);
      Alcotest.(check int) "the pure helper agrees" 2
        (List.length
           (Jrpm.Replay.fusion_groups ~recorded_hw:C.default ~recorded
              configs));
      let t = Jrpm.Explore.run ~jobs:1 ~grid ~path () in
      Alcotest.(check string) "default column = recorded summary"
        (Obs.Json.to_string
           (Jrpm.Report_summary.to_json (Jrpm.Report_summary.of_report report)))
        (Obs.Json.to_string
           (Jrpm.Report_summary.to_json
              (List.hd (Jrpm.Explore.default_summaries t))));
      Alcotest.(check string) "matrix = cell-at-a-time"
        (explore_json (cell_at_a_time ~grid path))
        (explore_json t))

(* The decode and tracer-run counts per explore pass: the benchmark
   grid over the registry archive (captured on the default machine, so
   every record carries the default geometry) is 26 record tasks of one
   fused tracer each — its three store_buffer points differ only in
   st_limit — so 26 decodes and 26 tracer runs, where one tracer per
   distinct config paid 78 and cell-at-a-time replay 234 of each. A
   load_buffer axis also sizes the load-dedup table, so it cannot fuse. *)
let test_explore_plan_counts () =
  let count grid =
    let configs = Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid grid) in
    let groups =
      Jrpm.Replay.fusion_groups ~recorded_hw:C.default
        ~recorded:default_geometry configs
    in
    (List.length configs, List.length (List.concat groups), List.length groups)
  in
  let records = List.length Workloads.Registry.all in
  let points, configs, runs = count [ "cpus=2,4,8"; "store_buffer=32,64,128" ] in
  Alcotest.(check int) "record tasks" 26 records;
  Alcotest.(check int) "cells" 234 (records * points);
  Alcotest.(check int) "distinct tracer configs per record" 3 configs;
  Alcotest.(check int) "fused tracer runs per record" 1 runs;
  Alcotest.(check int) "tracer runs per pass" 26 (records * runs);
  let _, _, cpus_runs = count [ "cpus=2,4,8" ] in
  Alcotest.(check int) "cpus alone: one tracer per record" 1 cpus_runs;
  let _, load_configs, load_runs = count [ "load_buffer=256,512,1024" ] in
  Alcotest.(check (pair int int)) "load_buffer does not fuse" (3, 3)
    (load_configs, load_runs);
  (* a real default-machine capture carries exactly that geometry *)
  let _, path = Lazy.force captured in
  let src = Trace_store.Bytesrc.map_file path in
  let configs =
    Jrpm.Explore.configs_of_grid
      (Jrpm.Explore.parse_grid [ "cpus=2,4,8"; "store_buffer=32,64,128" ])
  in
  List.iter
    (fun (e : Trace_store.Index.entry) ->
      let name = e.Trace_store.Index.name in
      Alcotest.(check (list int))
        ("captured record fusion groups: " ^ name)
        [ 3 ]
        (List.map List.length (Jrpm.Replay.entry_fusion_groups ~src e configs));
      let p = Jrpm.Replay.replay_entry_points ~hws:configs ~src e in
      Alcotest.(check (pair int int))
        ("captured record runs and splits: " ^ name)
        (1, 0)
        (p.Jrpm.Replay.tracer_runs, p.Jrpm.Replay.splits))
    (Trace_store.Index.of_src src)

(* ---------------- tracer digest pin ---------------- *)

(* Everything a replayed record's tracer reports, at five TEST
   geometries: the default machine, a 4-line heap timestamp FIFO, two
   local timestamp slots, a non-power-of-two line and dedup geometry
   (the division paths), and one comparator bank. Each line of
   golden_tracer_digests.txt is the md5 of one record's per-STL
   statistics (every field, per-PC bins in PC order), child cycles and
   cache-health counters at one geometry. The records are the explore
   subset's captures and generated programs 1-20, so a change to the
   decoder or the tracer hot path that moves any reported number fails
   here, whether or not the analyzer's verdict moves with it. *)
let digest_geometries =
  [
    ("default", []);
    ("heap_fifo=4", [ "heap_fifo=4" ]);
    ("local_slots=2", [ "local_slots=2" ]);
    ( "line_words=3 load_buffer=5 cacheline_ts=3",
      [ "line_words=3"; "load_buffer=5"; "cacheline_ts=3" ] );
    ("banks=1", [ "banks=1" ]);
  ]

let tracer_digest (t : Test_core.Tracer.t) =
  let b = Buffer.create 4096 in
  let ints l =
    List.iter (fun n -> Buffer.add_string b (string_of_int n ^ " ")) l
  in
  List.iter
    (fun (stl, (s : Test_core.Stats.t)) ->
      ints
        [
          stl; s.cycles; s.threads; s.entries; s.traced_threads;
          s.traced_entries; s.crit_prev_count; s.crit_prev_len;
          s.crit_earlier_count; s.crit_earlier_len; s.overflow_threads;
          s.max_load_lines; s.max_store_lines;
        ];
      List.iter
        (fun (pc, (p : Test_core.Stats.pc_bin)) ->
          ints [ pc; p.hits; p.total_len; p.min_len; p.thread_size_sum ])
        (List.sort compare
           (Test_core.Stats.fold_pc_bins (fun pc p acc -> (pc, p) :: acc) s []));
      Buffer.add_char b '\n')
    (Test_core.Tracer.stats t);
  List.iter
    (fun ((parent, child), cycles) -> ints [ parent; child; cycles ])
    (Test_core.Tracer.child_cycles t);
  ints
    [
      Test_core.Tracer.heap_fifo_evictions t;
      Test_core.Tracer.local_ts_evictions t;
      Test_core.Tracer.ld_dedup_conflicts t;
      Test_core.Tracer.st_dedup_conflicts t;
    ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_records =
  lazy
    (let _, path = Lazy.force captured in
     let archive = In_channel.with_open_bin path In_channel.input_all in
     let fuzz =
       List.init 20 (fun i ->
           let name = Printf.sprintf "fuzz-%d" (i + 1) in
           snd (Jrpm.Replay.capture_run ~name (Fuzz_gen.gen_program (i + 1))))
     in
     [ archive; Trace_store.Writer.container fuzz ])

let tracer_digest_lines () =
  List.concat_map
    (fun container ->
      let r = Trace_store.Reader.of_string container in
      let rec go acc =
        match Trace_store.Reader.next_record ~meta:false r with
        | None -> List.rev acc
        | Some { Trace_store.Reader.name; _ } ->
            let offset = Trace_store.Reader.record_offset r in
            let lines =
              List.map
                (fun (label, grid) ->
                  let hw =
                    match Jrpm.Explore.points (Jrpm.Explore.parse_grid grid) with
                    | [ hw ] -> hw
                    | _ -> C.default
                  in
                  let tracer =
                    Test_core.Tracer.create
                      ~config:(Test_core.Tracer.config_of hw) ()
                  in
                  ignore (Trace_store.Reader.seek_record r ~offset);
                  ignore
                    (Trace_store.Reader.replay r (Test_core.Tracer.sink tracer));
                  Printf.sprintf "%s %s %s" name
                    (String.map (fun c -> if c = ' ' then ',' else c) label)
                    (tracer_digest tracer))
                digest_geometries
            in
            go (List.rev_append lines acc)
      in
      go [])
    (Lazy.force digest_records)

let test_tracer_digests () =
  let golden =
    In_channel.with_open_bin "golden_tracer_digests.txt" In_channel.input_all
    |> String.trim |> String.split_on_char '\n'
  in
  let lines = tracer_digest_lines () in
  if lines <> golden then List.iter print_endline lines;
  Alcotest.(check (list string)) "tracer digests match golden" golden lines

(* ---------------- replay work counters ---------------- *)

(* The work counters a replay and an explore pass over the explore
   subset report, one Replay_work event per record: decoded events and
   bytes, the events the tracers consumed, tracer runs and release
   splits. One explore grid makes LuFactor's run split; the other
   cannot fuse, so each decode feeds two or three tracers. A
   change to how much work replay does, not to its results, moves
   these pins; golden_work_counters.txt lists them, one
   "<request> <counter> <value>" line each. *)
let work_counters ~jobs req =
  let rc = Obs.Recorder.create () in
  ignore (Jrpm.Daemon.execute ~obs:(Obs.Recorder.sink rc) ~jobs req);
  List.map
    (fun k -> (k, Obs.Metrics.counter (Obs.Recorder.metrics rc) k))
    [
      "trace_store.events"; "trace_store.bytes"; "tracer.events";
      "replay.tracer_runs"; "replay.splits";
    ]

let work_counter_lines ~jobs =
  let _, path = Lazy.force captured in
  List.concat_map
    (fun (label, req) ->
      List.map
        (fun (k, v) -> Printf.sprintf "%s %s %d" label k v)
        (work_counters ~jobs (Jrpm.Daemon.Request req)))
    [
      ("replay", Jrpm.Daemon.Replay { path; record = None });
      ( "explore store_buffer=4,16,64",
        Jrpm.Daemon.Explore { path; grid = [ "store_buffer=4,16,64" ] } );
      ( "explore load_buffer=256,1024",
        Jrpm.Daemon.Explore { path; grid = [ "load_buffer=256,1024" ] } );
    ]

let test_work_counters () =
  let golden =
    In_channel.with_open_bin "golden_work_counters.txt" In_channel.input_all
    |> String.trim |> String.split_on_char '\n'
  in
  let lines = work_counter_lines ~jobs:1 in
  if lines <> golden then List.iter print_endline lines;
  Alcotest.(check (list string)) "work counters match golden" golden lines;
  Alcotest.(check (list string)) "the same counters from forked workers"
    golden (work_counter_lines ~jobs:3)

(* ---------------- summary fingerprint migration ---------------- *)

let test_summary_fingerprint_fallback () =
  let _, path = Lazy.force captured in
  let t = Jrpm.Explore.run ~jobs:1 ~grid:[] ~path () in
  let s = List.hd (Jrpm.Explore.default_summaries t) in
  (* a summary written before the fingerprint existed reloads as the
     default machine's *)
  let stripped =
    match Jrpm.Report_summary.to_json s with
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.filter (fun (k, _) -> k <> "config_fingerprint") kvs)
    | _ -> Alcotest.fail "summary JSON is not an object"
  in
  Alcotest.(check string) "missing fingerprint falls back to default"
    C.default_fingerprint
    (Jrpm.Report_summary.of_json stripped).Jrpm.Report_summary
      .config_fingerprint

let suites =
  [
    ( "config.model",
      [
        Alcotest.test_case "field table covers the record" `Quick
          test_field_table;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
        Alcotest.test_case "of_json errors" `Quick test_of_json_errors;
        Alcotest.test_case "validate" `Quick test_validate;
        Alcotest.test_case "fingerprint and label" `Quick test_fingerprint;
      ] );
    ( "config.explore",
      [
        Alcotest.test_case "grid parsing and product" `Quick test_grid;
        Alcotest.test_case "golden 2-point grid x 3 workloads" `Quick
          test_explore_golden;
        Alcotest.test_case "cpus=8 verdict flip (deltaBlue)" `Quick
          test_explore_verdict_flip;
        Alcotest.test_case "explore byte-identical at jobs 1/4/16" `Quick
          test_explore_jobs_identity;
        Alcotest.test_case "matrix JSON round-trips through of_json" `Quick
          test_explore_json_roundtrip;
        Alcotest.test_case "summary fingerprint fallback" `Quick
          test_summary_fingerprint_fallback;
        Alcotest.test_case "per-record tasks = cell-at-a-time" `Quick
          test_explore_matches_cell_at_a_time;
        Alcotest.test_case "recorded geometry keeps its own tracer" `Quick
          test_explore_recorded_geometry;
        Alcotest.test_case "decode and tracer-run counts" `Quick
          test_explore_plan_counts;
        Alcotest.test_case "over-maximum grid point exits 2" `Quick
          test_explore_over_max_grid;
        Alcotest.test_case "out-of-domain operands are corrupt" `Quick
          test_hostile_operands;
      ] );
    ( "tracer.golden",
      [
        Alcotest.test_case "replayed tracer digests at five geometries" `Quick
          test_tracer_digests;
        Alcotest.test_case "replay work counters" `Quick test_work_counters;
      ] );
  ]
