(* Profiling-as-a-service: a resident server owning one long-lived
   Scheduler.Pool, fed by length-framed JSON requests over a
   Unix-domain socket (or stdio). Protocol spec: ARCHITECTURE.md §9.

   An [op] is the one description of profile/sweep/replay/explore work.
   [plan] checks it (registry lookup, record filter, grid parse) and
   turns it into one value for both paths: the labelled pool tasks
   (run_workload, Replay.replay_entry, Explore.eval_record) and the
   [finish] that assembles their results into the result document.
   [execute] maps the tasks over a per-call pool in this process — the
   one-shot [jrpm trace replay] / [jrpm explore] commands — and the
   server submits them to its warm pool; both answer with the same
   [finish], so a one-shot run and a daemon response are byte-identical
   by construction; only the transport differs. [sweep] runs workload
   tasks through [execute]'s runner and returns the typed outcomes.

   Containers are cached per process in an LRU ([Mapping_cache]) keyed
   by path: the server parent keeps only each container's index, which
   it needs at request time; each worker maps on first touching a path
   (mappings made after the fork cannot be inherited) and then serves
   every later request on that container from its cache. [execute]
   indexes through that worker cache itself, so the per-call workers it
   forks afterwards inherit the mapping. *)

let fail fmt = Printf.ksprintf failwith fmt

(* ---------------- LRU of open container mappings ---------------- *)

module Mapping_cache = struct
  type entry = {
    src : Trace_store.Bytesrc.t option;  (* [None] in an index-only cache *)
    entries : Trace_store.Index.entry list;
    size : int;
    mtime : float;
  }

  type t = {
    capacity : int;
    index_only : bool;
    mutable items : (string * entry) list;  (* most-recent first *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?(capacity = 8) ?(index_only = false) () =
    { capacity = max 1 capacity; index_only; items = []; hits = 0;
      misses = 0; evictions = 0 }

  let cached t = List.map fst t.items
  let stats t = (t.hits, t.misses, t.evictions)

  (* Staleness: a cached mapping is only valid while the file on disk
     is the one we mapped. Capture rewrites are atomic renames
     (Atomic_io), so a changed (size, mtime) pair means a wholly new
     file — remap. *)
  let fresh_stat path =
    match Unix.stat path with
    | st -> (st.Unix.st_size, st.Unix.st_mtime)
    | exception Unix.Unix_error (err, _, _) ->
        raise
          (Trace_store.Reader.Corrupt
             (path ^ ": cannot stat: " ^ Unix.error_message err))

  (* An index-only cache drops the mapping once the walk is done and
     collects it at once: an unreachable mapping stays mapped, with the
     pages the walk faulted in resident, until the GC finalizes it. *)
  let load ~index_only path =
    let size, mtime = fresh_stat path in
    if index_only then begin
      let entries =
        Trace_store.Index.of_src (Trace_store.Bytesrc.map_file path)
      in
      Gc.full_major ();
      { src = None; entries; size; mtime }
    end
    else
      let src = Trace_store.Bytesrc.map_file path in
      { src = Some src; entries = Trace_store.Index.of_src src; size; mtime }

  let lookup t path =
    let size, mtime = fresh_stat path in
    match List.assoc_opt path t.items with
    | Some e when e.size = size && e.mtime = mtime ->
        t.hits <- t.hits + 1;
        t.items <-
          (path, e) :: List.filter (fun (p, _) -> p <> path) t.items;
        e
    | stale ->
        t.misses <- t.misses + 1;
        let e = load ~index_only:t.index_only path in
        let rest = List.filter (fun (p, _) -> p <> path) t.items in
        let rest =
          if stale = None && List.length rest >= t.capacity then begin
            t.evictions <- t.evictions + 1;
            (* drop the least-recently-used tail entry *)
            List.filteri (fun i _ -> i < t.capacity - 1) rest
          end
          else rest
        in
        t.items <- (path, e) :: rest;
        e

  let get t path = Option.get (lookup t path).src
  let get_entries t path = (lookup t path).entries
end

(* ---------------- wire framing ---------------- *)

(* [len: 8-byte LE][JSON payload], both directions — the scheduler
   pool's pipe framing applied to a socket. *)

let frame_bytes json = Framing.frame (Obs.Json.to_string json)
let write_frame fd json = Framing.write_all fd (frame_bytes json)

let read_frame fd =
  match Framing.read fd with
  | Eof -> None
  | Truncated -> fail "Jrpm.Daemon: truncated frame"
  | Complete payload -> Some (Obs.Json.parse_exn (Bytes.to_string payload))
  | exception Framing.Bad_length len ->
      fail "Jrpm.Daemon: oversized frame (%d bytes)" len

(* ---------------- request / response codec ---------------- *)

type request =
  | Ping
  | Profile of string
  | Replay of { path : string; record : string option }
  | Explore of { path : string; grid : string list }
  | Stats
  | Sleep of float
  | Shutdown

type op = Request of request | Sweep of string list

type envelope = { id : Obs.Json.t; req : request }

let strings l = Obs.Json.List (List.map (fun g -> Obs.Json.String g) l)

let op_to_json ~id op =
  let open Obs.Json in
  let fields =
    match op with
    | Sweep ws -> [ ("op", String "sweep"); ("workloads", strings ws) ]
    | Request Ping -> [ ("op", String "ping") ]
    | Request (Profile w) -> [ ("op", String "profile"); ("workload", String w) ]
    | Request (Replay { path; record }) ->
        [ ("op", String "replay"); ("path", String path) ]
        @ (match record with
          | Some r -> [ ("record", String r) ]
          | None -> [])
    | Request (Explore { path; grid }) ->
        [ ("op", String "explore"); ("path", String path); ("grid", strings grid) ]
    | Request Stats -> [ ("op", String "stats") ]
    | Request (Sleep s) -> [ ("op", String "sleep"); ("seconds", Float s) ]
    | Request Shutdown -> [ ("op", String "shutdown") ]
  in
  Obj (("id", id) :: fields)

let request_to_json { id; req } = op_to_json ~id (Request req)

let op_of_json json =
  let open Obs.Json in
  let id = Option.value (member "id" json) ~default:Null in
  let str key =
    match Option.bind (member key json) to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or mistyped field %S" key)
  in
  let strs key =
    match Option.bind (member key json) to_list with
    | None -> Error (Printf.sprintf "missing or mistyped field %S" key)
    | Some items ->
        let l = List.filter_map to_string_opt items in
        if List.length l = List.length items then Ok l
        else Error (Printf.sprintf "non-string entry in %S" key)
  in
  let ( let* ) = Result.bind in
  let op =
    match Option.bind (member "op" json) to_string_opt with
    | None -> Error "missing or mistyped field \"op\""
    | Some "ping" -> Ok (Request Ping)
    | Some "stats" -> Ok (Request Stats)
    | Some "shutdown" -> Ok (Request Shutdown)
    | Some "profile" ->
        let* w = str "workload" in
        Ok (Request (Profile w))
    | Some "sweep" ->
        let* ws = strs "workloads" in
        Ok (Sweep ws)
    | Some "replay" ->
        let* path = str "path" in
        let record =
          Option.bind (member "record" json) to_string_opt
        in
        Ok (Request (Replay { path; record }))
    | Some "explore" ->
        let* path = str "path" in
        let* grid = strs "grid" in
        Ok (Request (Explore { path; grid }))
    | Some "sleep" -> (
        match Option.bind (member "seconds" json) to_float with
        | Some s when Float.is_finite s && s >= 0. -> Ok (Request (Sleep s))
        | Some _ | None -> Error "missing or mistyped field \"seconds\"")
    | Some op -> Error (Printf.sprintf "unknown op %S" op)
  in
  Result.map (fun op -> (id, op)) op

type response = {
  rsp_id : Obs.Json.t;
  rsp : (Obs.Json.t, string) result;
  elapsed_s : float;
  queue_depth : int;  (** pool backlog when the request was accepted *)
  tasks : int;  (** pool tasks the request fanned into *)
}

let response_to_json r =
  let open Obs.Json in
  Obj
    [
      ("id", r.rsp_id);
      ("ok", Bool (Result.is_ok r.rsp));
      (match r.rsp with
      | Ok result -> ("result", result)
      | Error msg -> ("error", String msg));
      ( "metrics",
        Obj
          [
            ("elapsed_s", Float r.elapsed_s);
            ("queue_depth", Int r.queue_depth);
            ("tasks", Int r.tasks);
          ] );
    ]

let response_of_json json =
  let open Obs.Json in
  let id = Option.value (member "id" json) ~default:Null in
  let metric key conv default =
    Option.value
      (Option.bind (member "metrics" json) (fun m ->
           Option.bind (member key m) conv))
      ~default
  in
  let rsp =
    match Option.bind (member "ok" json) (function
            | Bool b -> Some b
            | _ -> None)
    with
    | Some true ->
        Ok (Option.value (member "result" json) ~default:Null)
    | Some false | None ->
        Error
          (Option.value
             (Option.bind (member "error" json) to_string_opt)
             ~default:"malformed response")
  in
  {
    rsp_id = id;
    rsp;
    elapsed_s = metric "elapsed_s" to_float 0.;
    queue_depth = metric "queue_depth" to_int 0;
    tasks = metric "tasks" to_int 0;
  }

(* ---------------- pool tasks ---------------- *)

type outcome = {
  workload : Workloads.Workload.t;
  summary : Report_summary.t;
  report : Pipeline.report option;
  recorder : Obs.Recorder.t option;
  trace : string option;
}

type task =
  | T_workload of {
      workload : Workloads.Workload.t;
      capture : bool;
      observe : bool;
      report : bool;
    }
  | T_replay of { path : string; entry : Trace_store.Index.entry }
  | T_explore_record of {
      path : string;
      configs : Hydra.Config.t list;
      entry : Trace_store.Index.entry;
    }
  | T_sleep of float

type task_result =
  | R_workload of outcome
  | R_replay of Replay.outcome
  | R_cells of Explore.cell list
  | R_slept of float
  (* a record raised [Corrupt]: carried as a result, not as a worker's
     exception text, so the request fails with the typed error at every
     [jobs] *)
  | R_corrupt of string

(* Per-worker mapping cache: forked workers cannot inherit mappings
   the parent established after the fork, so each worker maps a
   container on first touch and serves every later task on it from
   its own LRU. *)
let worker_cache = lazy (Mapping_cache.create ())

(* The one place a workload runs. The full report goes back only when
   asked: it is tens of kilobytes to marshal, and only the paper tables
   read it. *)
let run_workload ~capture ~observe ~report (w : Workloads.Workload.t) =
  let recorder = if observe then Some (Obs.Recorder.create ()) else None in
  let obs = Option.fold ~none:Obs.Sink.null ~some:Obs.Recorder.sink recorder in
  let name = w.Workloads.Workload.name in
  let src = Workloads.Registry.default_source w in
  let r, trace =
    if capture then
      let r, record = Replay.capture_run ~obs ~name src in
      (r, Some record)
    else (Pipeline.run ~obs ~name src, None)
  in
  Option.iter
    (fun rc -> Pipeline.record_report_metrics (Obs.Recorder.metrics rc) r)
    recorder;
  let report = if report then Some r else None in
  { workload = w; summary = Report_summary.of_report r; report; recorder; trace }

let run_task task =
  try
    match task with
    | T_workload { workload; capture; observe; report } ->
        R_workload (run_workload ~capture ~observe ~report workload)
    | T_replay { path; entry } ->
        let src = Mapping_cache.get (Lazy.force worker_cache) path in
        R_replay (Replay.replay_entry ~src entry)
    | T_explore_record { path; configs; entry } ->
        let src = Mapping_cache.get (Lazy.force worker_cache) path in
        R_cells (Explore.eval_record ~src configs entry)
    | T_sleep s ->
        Unix.sleepf s;
        R_slept s
  with Trace_store.Reader.Corrupt msg -> R_corrupt msg

(* The per-call schedule plans frames with these: a replay record costs
   its events, an explore record its events once per fused tracer run.
   Workload tasks weigh nothing, so a sweep's frames are singletons in
   registry order (FIFO); a sleep is always alone. *)
let task_weight = function
  | T_workload _ | T_sleep _ -> 0.
  | T_replay { entry; _ } -> float_of_int entry.Trace_store.Index.events
  | T_explore_record { path; configs; entry } ->
      Explore.record_weight
        ~src:(Mapping_cache.get (Lazy.force worker_cache) path)
        configs entry

(* ---------------- request plans ---------------- *)

(* A request's fan-out: the labelled pool tasks, and the function that
   assembles their results (in task order) into the result document. *)
type plan = {
  tasks : (string * task) list;
  finish : task_result list -> Obs.Json.t;
}

(* Assemble a fan-out's results; the first corrupt record, in task
   order, fails the request with [Corrupt] whichever worker ran it. *)
let finish plan results =
  List.iter
    (function
      | R_corrupt msg -> raise (Trace_store.Reader.Corrupt msg) | _ -> ())
    results;
  plan.finish results

let workload_task ?(capture = false) ?(observe = false) ?(report = false)
    (w : Workloads.Workload.t) =
  ("workload " ^ w.Workloads.Workload.name,
   T_workload { workload = w; capture; observe; report })

let replay_result ~path (outcomes : Replay.outcome list) =
  let open Obs.Json in
  Obj
    [
      ("path", String path);
      ( "matches",
        Bool (List.for_all (fun (o : Replay.outcome) -> o.Replay.matches)
                outcomes) );
      ( "records",
        List
          (List.map
             (fun (o : Replay.outcome) ->
               Obj
                 [
                   ("name", String o.Replay.name);
                   ("events", Int o.Replay.events);
                   ("record_bytes", Int o.Replay.record_bytes);
                   ("reference_bytes", Int o.Replay.reference_bytes);
                   ("predicted_speedup",
                    Float
                      o.Replay.replayed.Report_summary.predicted_speedup);
                   ("selected_stls",
                    Int o.Replay.replayed.Report_summary.selected_stls);
                   ("matches", Bool o.Replay.matches);
                 ])
             outcomes) );
      ( "summaries",
        List
          (List.map
             (fun (o : Replay.outcome) -> Report_summary.to_json o.Replay.replayed)
             outcomes) );
    ]

let mismatch () = fail "internal: mismatched task result"

(* A profile or sweep: one task per registered workload; [finish] gets
   their summaries in order. *)
let workloads_plan names finish =
  let task w =
    match Workloads.Registry.find w with
    | Some w -> workload_task w
    | None -> fail "unknown workload %S" w
  in
  let summary = function
    | R_workload o -> Report_summary.to_json o.summary
    | _ -> mismatch ()
  in
  { tasks = List.map task names; finish = (fun rs -> finish (List.map summary rs)) }

let record_tasks entries task =
  List.map
    (fun (e : Trace_store.Index.entry) ->
      ("record " ^ e.Trace_store.Index.name, task e))
    entries

(* Check an op against the registry, the container's index ([index])
   and the grid syntax, and plan its fan-out. The grid is parsed before
   the container is touched, as in [Explore.run]: a bad grid is
   reported whatever the path. *)
let plan ~index = function
  | Request (Profile w) ->
      workloads_plan [ w ] (function
        | [ s ] -> Obs.Json.Obj [ ("summary", s) ]
        | _ -> mismatch ())
  | Sweep ws ->
      workloads_plan ws (fun ss -> Obs.Json.Obj [ ("summaries", Obs.Json.List ss) ])
  | Request (Replay { path; record }) ->
      let entries =
        match record with
        | None -> index path
        | Some name -> (
            match
              List.filter
                (fun (e : Trace_store.Index.entry) ->
                  e.Trace_store.Index.name = name)
                (index path)
            with
            | [] -> fail "no record named %S in %s" name path
            | entries -> entries)
      in
      {
        tasks = record_tasks entries (fun entry -> T_replay { path; entry });
        finish =
          (fun results ->
            replay_result ~path
              (List.map
                 (function R_replay o -> o | _ -> mismatch ())
                 results));
      }
  | Request (Explore { path; grid }) ->
      let configs = Explore.configs_of_grid (Explore.parse_grid grid) in
      {
        tasks =
          record_tasks (index path) (fun entry ->
              T_explore_record { path; configs; entry });
        finish =
          (fun results ->
            Explore.to_json
              (Explore.assemble_records ~archive:path ~configs
                 (List.map
                    (function R_cells c -> c | _ -> mismatch ())
                    results)));
      }
  | Request (Sleep s) ->
      {
        tasks = [ (Printf.sprintf "sleep %.3fs" s, T_sleep s) ];
        finish =
          (function
          | [ R_slept s ] -> Obs.Json.Obj [ ("slept", Obs.Json.Float s) ]
          | _ -> mismatch ());
      }
  | Request (Ping | Stats | Shutdown) ->
      invalid_arg
        "Jrpm.Daemon: not a profile/sweep/replay/explore/sleep request"

(* ---------------- in-process execution ---------------- *)

(* The one per-call runner: labelled tasks over a pool of [jobs]
   forked workers, results in task order. *)
let run_tasks ~jobs tasks =
  Scheduler.map_adaptive ~jobs
    ~label:(fun _ (label, _) -> label)
    ~weights:(fun _ (_, task) -> task_weight task)
    (fun _ (_, task) -> run_task task)
    tasks

(* The index comes from the worker cache, so the container is mapped
   before [run_tasks] forks and the per-call workers inherit it. *)
let execute ~jobs op =
  let p = plan ~index:(Mapping_cache.get_entries (Lazy.force worker_cache)) op in
  finish p (run_tasks ~jobs p.tasks)

let sweep ~jobs ?capture ?observe ?report workloads =
  List.map
    (function R_workload o -> o | _ -> mismatch ())
    (run_tasks ~jobs (List.map (workload_task ?capture ?observe ?report) workloads))

let container outcomes =
  match List.filter_map (fun o -> o.trace) outcomes with
  | [] -> None
  | records -> Some (Trace_store.Writer.container records)

let merged_recorder outcomes =
  match List.filter_map (fun o -> o.recorder) outcomes with
  | [] -> None
  | recorders ->
      let merged = Obs.Recorder.create () in
      List.iter (Obs.Recorder.merge merged) recorders;
      Some merged

(* ---------------- server ---------------- *)

type transport = Socket of string | Stdio

type conn = {
  in_fd : Unix.file_descr;
  out_fd : Unix.file_descr;  (* = in_fd except for stdio *)
  inbuf : Buffer.t;
  mutable inpos : int;  (* consumed prefix of [inbuf] *)
  outq : (Bytes.t * int ref) Queue.t;
  mutable conn_closed : bool;
}

type pending = {
  preq_id : Obs.Json.t;
  pconn : conn;
  pfinish : task_result list -> Obs.Json.t;
  pslots : task_result option array;
  mutable premaining : int;
  mutable presponded : bool;
  pt0 : float;
  pqueue_depth : int;
}

type server = {
  pool : (task, task_result) Scheduler.Pool.t;
  cache : Mapping_cache.t;
  metrics : Obs.Metrics.t;
  tickets : (int, pending * int) Hashtbl.t;  (* ticket -> (req, slot) *)
  mutable conns : conn list;
  mutable stopping : bool;
  started_at : float;
}

let enqueue_frame conn json =
  if not conn.conn_closed then
    Queue.push (frame_bytes json, ref 0) conn.outq

(* Every path that drops a connection comes through here: marking it
   closed without closing its fds would leak them, since the loop then
   forgets the connection. Its unsent frames go too, and [enqueue_frame]
   adds none, so it is never written again: once closed, the fd number
   may already belong to a newer client. *)
let release conn =
  if not conn.conn_closed then begin
    conn.conn_closed <- true;
    Queue.clear conn.outq;
    (try Unix.close conn.in_fd with Unix.Unix_error _ -> ());
    if conn.out_fd <> conn.in_fd then
      try Unix.close conn.out_fd with Unix.Unix_error _ -> ()
  end

(* Opportunistic nonblocking flush; the select loop retries when the
   socket is writable again. *)
let flush_conn conn =
  try
    while not (Queue.is_empty conn.outq) do
      let b, pos = Queue.peek conn.outq in
      let n = Unix.write conn.out_fd b !pos (Bytes.length b - !pos) in
      if n <= 0 then raise Exit;
      pos := !pos + n;
      if !pos = Bytes.length b then ignore (Queue.pop conn.outq)
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Exit -> ()
  | Unix.Unix_error (Unix.EPIPE, _, _) | Sys_error _ -> release conn

let close_conn srv conn =
  release conn;
  srv.conns <- List.filter (fun c -> c != conn) srv.conns

let send_response srv conn ~id ~t0 ~queue_depth ~tasks rsp =
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Obs.Metrics.observe srv.metrics "daemon.request_seconds" elapsed_s;
  if Result.is_error rsp then
    Obs.Metrics.incr srv.metrics "daemon.requests_failed";
  enqueue_frame conn
    (response_to_json { rsp_id = id; rsp; elapsed_s; queue_depth; tasks });
  flush_conn conn

let respond_now srv conn ~id ~queue_depth rsp =
  send_response srv conn ~id ~t0:(Unix.gettimeofday ()) ~queue_depth ~tasks:0
    rsp

let respond srv (p : pending) rsp =
  if not p.presponded then begin
    p.presponded <- true;
    send_response srv p.pconn ~id:p.preq_id ~t0:p.pt0
      ~queue_depth:p.pqueue_depth ~tasks:(Array.length p.pslots) rsp
  end

(* The whole fan-out is in: assemble the response with [finish], as
   [execute] does, and answer its errors as [handle_request] does. *)
let finish_request srv (p : pending) =
  respond srv p
    (match p.pfinish (Array.to_list (Array.map Option.get p.pslots)) with
    | json -> Ok json
    | exception Trace_store.Reader.Corrupt msg ->
        Error ("corrupt container: " ^ msg)
    | exception (Failure msg | Invalid_argument msg) -> Error msg)

let submit_fanout srv conn ~id (plan : plan) =
  let n = List.length plan.tasks in
  let p =
    {
      preq_id = id;
      pconn = conn;
      pfinish = finish plan;
      pslots = Array.make n None;
      premaining = n;
      presponded = false;
      pt0 = Unix.gettimeofday ();
      pqueue_depth = Scheduler.Pool.pending srv.pool;
    }
  in
  Obs.Metrics.incr ~by:n srv.metrics "daemon.tasks";
  Obs.Metrics.observe srv.metrics "daemon.queue_depth"
    (float_of_int p.pqueue_depth);
  List.iteri
    (fun slot (label, task) ->
      let ticket = Scheduler.Pool.submit ~label srv.pool task in
      Hashtbl.replace srv.tickets ticket (p, slot))
    plan.tasks;
  (* a replay or explore over a container with no records fans into
     nothing *)
  if n = 0 then finish_request srv p

let stats_result srv =
  let open Obs.Json in
  let busy = Scheduler.Pool.busy_pids srv.pool in
  let hits, misses, evictions = Mapping_cache.stats srv.cache in
  Obs.Metrics.set_gauge srv.metrics "daemon.worker_deaths"
    (float_of_int (Scheduler.Pool.deaths srv.pool));
  Obj
    [
      ("pid", Int (Unix.getpid ()));
      ("jobs", Int (Scheduler.Pool.jobs srv.pool));
      ( "workers",
        List
          (List.map
             (fun pid ->
               Obj [ ("pid", Int pid); ("busy", Bool (List.mem pid busy)) ])
             (Scheduler.Pool.worker_pids srv.pool)) );
      ("queued", Int (Scheduler.Pool.queued srv.pool));
      ("in_flight", Int (Scheduler.Pool.in_flight srv.pool));
      ("worker_deaths", Int (Scheduler.Pool.deaths srv.pool));
      ("uptime_s", Float (Unix.gettimeofday () -. srv.started_at));
      ( "mapping_cache",
        Obj
          [
            ("hits", Int hits);
            ("misses", Int misses);
            ("evictions", Int evictions);
            ( "cached",
              List
                (List.map (fun p -> String p)
                   (Mapping_cache.cached srv.cache)) );
          ] );
      ("metrics", Obs.Metrics.to_json srv.metrics);
    ]

let handle_request srv conn json =
  Obs.Metrics.incr srv.metrics "daemon.requests";
  let queue_depth = Scheduler.Pool.pending srv.pool in
  match op_of_json json with
  | Error msg ->
      let id =
        Option.value (Obs.Json.member "id" json) ~default:Obs.Json.Null
      in
      respond_now srv conn ~id ~queue_depth (Error ("bad request: " ^ msg))
  | Ok (id, op) -> (
      let error msg = respond_now srv conn ~id ~queue_depth (Error msg) in
      match op with
      | Request Ping -> respond_now srv conn ~id ~queue_depth (Ok (Obs.Json.String "pong"))
      | Request Stats -> respond_now srv conn ~id ~queue_depth (Ok (stats_result srv))
      | Request Shutdown ->
          srv.stopping <- true;
          respond_now srv conn ~id ~queue_depth (Ok (Obs.Json.String "bye"))
      | Request (Profile _ | Replay _ | Explore _ | Sleep _) | Sweep _ -> (
          match plan ~index:(Mapping_cache.get_entries srv.cache) op with
          | exception Trace_store.Reader.Corrupt msg ->
              error ("corrupt container: " ^ msg)
          | exception (Failure msg | Invalid_argument msg) -> error msg
          | plan -> submit_fanout srv conn ~id plan))

(* A completed pool ticket: slot the result; when the whole fan-out is
   in, assemble the response. A worker death (or task error) fails
   only this request — the other tickets keep running and their
   completions are dropped here. *)
let on_completion srv (c : task_result Scheduler.Pool.completion) =
  match Hashtbl.find_opt srv.tickets c.Scheduler.Pool.ticket with
  | None -> ()
  | Some (p, slot) -> (
      Hashtbl.remove srv.tickets c.Scheduler.Pool.ticket;
      match c.Scheduler.Pool.outcome with
      | Error msg ->
          (* fail only the affected request; sibling tickets of the
             same request become no-ops on arrival *)
          respond srv p (Error msg)
      | Ok r ->
          p.pslots.(slot) <- Some r;
          p.premaining <- p.premaining - 1;
          if p.premaining = 0 && not p.presponded then finish_request srv p)

(* Drop the consumed prefix once it is at least half the buffer, so a
   burst of pipelined frames costs linear, not quadratic, copying. *)
let compact_inbuf conn =
  let len = Buffer.length conn.inbuf in
  if conn.inpos > 0 && 2 * conn.inpos >= len then begin
    let rest = Buffer.sub conn.inbuf conn.inpos (len - conn.inpos) in
    Buffer.clear conn.inbuf;
    Buffer.add_string conn.inbuf rest;
    conn.inpos <- 0
  end

(* Largest inbound request payload. Requests are a few hundred bytes of
   JSON; [Framing.max_frame] sizes the pool's result pipes, whose
   capture records run to megabytes, and would let one client make the
   server buffer a gigabyte before parsing. *)
let max_request = 1 lsl 16

(* One readable client fd: accumulate, then peel off complete frames. *)
let feed_conn srv conn =
  let chunk = Bytes.create 65536 in
  (match
     Framing.restart_eintr (fun () -> Unix.read conn.in_fd chunk 0 65536)
   with
  | 0 -> close_conn srv conn
  | n -> Buffer.add_subbytes conn.inbuf chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn srv conn);
  let progress = ref (not conn.conn_closed) in
  while !progress do
    progress := false;
    let have = Buffer.length conn.inbuf - conn.inpos in
    if have >= Framing.header_bytes then begin
      (* an out-of-range length header is the one framing error that
         closes the connection: the stream cannot be resynchronized *)
      match
        Framing.payload_length
          (Buffer.sub conn.inbuf conn.inpos Framing.header_bytes)
      with
      | exception Framing.Bad_length _ -> close_conn srv conn
      | len when len > max_request -> close_conn srv conn
      | len when have >= Framing.header_bytes + len ->
          let payload =
            Buffer.sub conn.inbuf (conn.inpos + Framing.header_bytes) len
          in
          conn.inpos <- conn.inpos + Framing.header_bytes + len;
          compact_inbuf conn;
          (match Obs.Json.parse_exn payload with
          | json -> handle_request srv conn json
          | exception Failure msg ->
              enqueue_frame conn
                (response_to_json
                   {
                     rsp_id = Obs.Json.Null;
                     rsp = Error ("bad request: " ^ msg);
                     elapsed_s = 0.;
                     queue_depth = Scheduler.Pool.pending srv.pool;
                     tasks = 0;
                   }));
          progress := not conn.conn_closed
      | _ -> ()
    end
  done

let make_conn ?(out_fd : Unix.file_descr option) fd =
  {
    in_fd = fd;
    out_fd = Option.value out_fd ~default:fd;
    inbuf = Buffer.create 256;
    inpos = 0;
    outq = Queue.create ();
    conn_closed = false;
  }

let serve ?(jobs = 1) transport =
  (* EPIPE from a vanished client or worker must surface at the write
     site, not kill the daemon *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore : Sys.signal_behavior)
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd, sock_path, conns0 =
    match transport with
    | Socket path ->
        if Sys.file_exists path then (try Unix.unlink path with _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        (Some fd, Some path, [])
    | Stdio -> (None, None, [ make_conn ~out_fd:Unix.stdout Unix.stdin ])
  in
  let srv_ref = ref None in
  (* Respawned workers fork from a parent that now holds the listening
     socket and client connections; close them in the child so the
     socket dies with the daemon, not with the last worker. *)
  let child_cleanup () =
    (match listen_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    match !srv_ref with
    | None -> ()
    | Some srv ->
        List.iter release srv.conns
  in
  let pool = Scheduler.Pool.create ~jobs ~child_cleanup run_task in
  let srv =
    {
      pool;
      cache = Mapping_cache.create ~index_only:true ();
      metrics = Obs.Metrics.create ();
      tickets = Hashtbl.create 64;
      conns = conns0;
      stopping = false;
      started_at = Unix.gettimeofday ();
    }
  in
  srv_ref := Some srv;
  (* Teardown on every exit path — normal return, [exit] from a signal
     handler, an escaping exception: close the task pipes (workers exit
     on EOF), reap the pool, remove the socket file. SIGKILL needs no
     handler: the kernel closes our pipe ends and the workers' EOF
     handling does the rest. *)
  let torn_down = ref false in
  let teardown () =
    if not !torn_down then begin
      torn_down := true;
      Scheduler.Pool.shutdown pool;
      (match listen_fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      match sock_path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      | None -> ()
    end
  in
  at_exit teardown;
  List.iter
    (fun sg ->
      try Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  let finished () =
    srv.stopping
    && Hashtbl.length srv.tickets = 0
    && List.for_all (fun c -> Queue.is_empty c.outq) srv.conns
  in
  let stdio_done () =
    match transport with Stdio -> srv.conns = [] | Socket _ -> false
  in
  Fun.protect ~finally:teardown (fun () ->
      while not (finished () || stdio_done ()) do
        let listen_set =
          match listen_fd with
          | Some fd when not srv.stopping -> [ fd ]
          | _ -> []
        in
        let read_set =
          listen_set
          @ List.map (fun c -> c.in_fd) srv.conns
          @ Scheduler.Pool.result_fds srv.pool
        in
        let write_set =
          List.filter_map
            (fun c -> if Queue.is_empty c.outq then None else Some c.out_fd)
            srv.conns
        in
        let readable, writable, _ =
          Framing.restart_eintr (fun () ->
              Unix.select read_set write_set [] (-1.))
        in
        (* pool completions first: a completed request's response can
           ride the same writability event *)
        List.iter
          (fun fd ->
            if List.exists (fun pfd -> pfd = fd)
                 (Scheduler.Pool.result_fds srv.pool)
            then Scheduler.Pool.drain_fd srv.pool fd)
          readable;
        List.iter (on_completion srv) (Scheduler.Pool.poll srv.pool);
        (match listen_fd with
        | Some lfd when List.mem lfd readable -> (
            match Framing.restart_eintr (fun () -> Unix.accept lfd) with
            | fd, _ ->
                Unix.set_nonblock fd;
                srv.conns <- make_conn fd :: srv.conns;
                Obs.Metrics.incr srv.metrics "daemon.connections"
            | exception Unix.Unix_error _ -> ())
        | _ -> ());
        List.iter
          (fun conn ->
            if List.mem conn.in_fd readable then feed_conn srv conn)
          (List.filter (fun c -> not c.conn_closed) srv.conns);
        List.iter
          (fun conn ->
            if List.mem conn.out_fd writable then flush_conn conn)
          srv.conns;
        srv.conns <- List.filter (fun c -> not c.conn_closed) srv.conns
      done)

(* ---------------- blocking client ---------------- *)

module Client = struct
  type t = { fd : Unix.file_descr; mutable next_id : int }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        fail "Jrpm.Daemon.Client: cannot connect to %s: %s" path
          (Unix.error_message err));
    { fd; next_id = 0 }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let send ?id t op =
    let id =
      match id with
      | Some id -> id
      | None ->
          let n = t.next_id in
          t.next_id <- n + 1;
          Obs.Json.Int n
    in
    write_frame t.fd (op_to_json ~id op);
    id

  let recv t =
    match read_frame t.fd with
    | Some json -> response_of_json json
    | None -> fail "Jrpm.Daemon.Client: server closed the connection"

  let rpc ?id t req =
    let id = send ?id t (Request req) in
    let rec await () =
      let r = recv t in
      if r.rsp_id = id then r else await ()
    in
    await ()
end
