(* The repository benchmark: see perfbench/README.md for the workloads,
   the metrics, and how each per-layer number maps onto an end-to-end
   one. Run from the repository root:

     dune exec perfbench/main.exe -- --workload sweep --seed 1 --seconds 20 --trace 0

   The last stdout line is the result object; the line before it
   describes the host and the samples behind the numbers. *)

open Perfbench
module RS = Jrpm.Report_summary
module Sched = Jrpm.Scheduler
module Daemon = Jrpm.Daemon

let work_dir = Filename.concat "perfbench" "_work"
let baseline_path = Filename.concat "test" "baseline_sweep_summaries.json"
let spec_path = "BENCHMARK.json"
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* One process drives the load with at most nproc workers/connections,
   capped so a many-core host does not fork dozens of interpreters. *)
let jobs = max 1 (min 4 (Sched.core_count ()))

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows and one slow set-up does not: at least twice, and until
   two seconds of set-up (cheap set-ups repeat up to 200 times). *)
let setup_min_reps = 2
let setup_max_reps = 200
let setup_budget_s = 2.

let explore_grid = [ "cpus=2,4,8"; "store_buffer=32,64,128" ]

(* Twelve single-record containers — more than the daemon's 8-entry
   mapping cache — captured from the smallest registry programs, and
   the three smallest programs for [profile] requests. *)
let serve_programs =
  [ "FourierTest"; "monteCarlo"; "Assignment"; "fft"; "LuFactor"; "encJpeg";
    "mp3"; "NeuralNet"; "deltaBlue"; "BitOps"; "decJpeg"; "mpegVideo" ]

let profile_programs = [| "FourierTest"; "monteCarlo"; "fft" |]
let serve_block = 100

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* ---------------- measurement helpers ---------------- *)

external children_max_rss_kb : unit -> int = "perfbench_children_max_rss_kb" [@@noalloc]

(* Largest peak RSS (kB) of this process and of every child it has
   reaped: a forked scheduler worker or a daemon's pool worker. This
   process's own peak is VmHWM, which starts afresh at exec; the
   getrusage figure for the process itself would carry over the peak of
   the bench process that spawned it. *)
let max_rss_kb () =
  let hwm =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> failwith "no VmHWM in /proc/self/status"
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" Fun.id
          | Some _ -> find ()
        in
        find ())
  in
  max hwm (children_max_rss_kb ())

let mb_of_kb kb = float_of_int kb /. 1024.

(* Run this program again with [args], to completion, in a fresh
   process; returns the last line it printed. *)
let run_self args =
  flush_all ();
  let ic =
    Unix.open_process_args_in Sys.executable_name (Array.append [| Sys.executable_name |] args)
  in
  let rec last acc = match input_line ic with l -> last l | exception End_of_file -> acc in
  let line = last "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> line
  | _ -> failwith ("main.exe " ^ String.concat " " (Array.to_list args) ^ " failed")

let repeat_setup f =
  let rec go times total =
    (* no collection work left over from the previous set-up, so each
       one pays only for its own garbage *)
    Gc.full_major ();
    let v, dt = timed f in
    let times = dt :: times and total = total +. dt in
    let reps = List.length times in
    if reps < setup_min_reps || (total < setup_budget_s && reps < setup_max_reps)
    then go times total
    else begin
      (* the passes, and the workers they fork, start without the
         set-ups' garbage *)
      Gc.compact ();
      (Array.of_list (List.rev times), v)
    end
  in
  go [] 0.

let m name unit_ value = { Metric.name; unit_; value }

type e2e = {
  setup : float array;
  wall_s : float;
  latencies_ms : float array list;  (* pools of request latencies *)
  requests_per_s : float;
  rss_mb : float;
}

(* A latency percentile is taken within each pool, and the run reports
   the median over its pools. A batch pass is a pool, so one slow pass
   moves one pool and not the run's tail; [serve]'s replies form one
   pool. *)
let latency r ~pct =
  Stats.median (Array.of_list (List.map (fun xs -> Stats.percentile xs ~pct) r.latencies_ms))

let e2e_metrics (r : e2e) tally =
  [
    m "setup_s" "s" (Stats.median r.setup);
    m "wall_s" "s" r.wall_s;
    m "p50_ms" "ms" (latency r ~pct:50);
    m "p99_ms" "ms" (latency r ~pct:99);
    m "requests_per_s" "1/s" r.requests_per_s;
    m "peak_rss_mb" "MB" r.rss_mb;
    m "ok_ratio" "ratio" (Tally.ok_ratio tally);
  ]

let e2e_info (r : e2e) =
  let n = List.fold_left (fun n xs -> min n (Array.length xs)) max_int r.latencies_ms in
  Obs.Json.Obj
    [
      ("setup_reps", Obs.Json.Int (Array.length r.setup));
      ("latency_pools", Obs.Json.Int (List.length r.latencies_ms));
      ("min_pool_samples", Obs.Json.Int n);
      ("min_pool_beyond_p99", Obs.Json.Int (Stats.beyond ~n ~pct:99));
    ]

(* The timed passes of a batch workload run in a fresh process (this
   program with [--passes]), as the user's command would: its heap holds
   none of the bench's set-up, so the workers its passes fork inherit
   none of it, and its peak RSS, with its workers', is the command's.
   [run] is one pass, and [check] judges its result outside the timed
   region. The previous pass's garbage is collected before the next
   pass starts, so the workers each pass forks do not inherit it. The
   process prints the passes' durations, its tally and its peak RSS as
   one JSON line. *)
let passes_process ~seconds ~run ~check =
  let tally = Tally.create () in
  let t0 = now () in
  let rec go acc =
    let v, dt = timed run in
    check tally v;
    Gc.compact ();
    let acc = dt :: acc in
    if now () -. t0 < seconds then go acc else List.rev acc
  in
  let passes = go [] in
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("passes", List (List.map (fun dt -> Float dt) passes));
            ("attempted", Int tally.Tally.attempted);
            ("failed", Int tally.Tally.failed);
            ("first_failure", Option.fold ~none:Null ~some:(fun w -> String w) tally.Tally.first_failure);
            ("rss_kb", Int (max_rss_kb ()));
          ]))

(* A batch command delivers every result when it returns, so each of
   its [per_pass] requests waits the whole pass; its throughput is that
   of the median pass. *)
let batch_e2e ~workload ~seconds ~setup ~per_pass tally =
  let json =
    Obs.Json.parse_exn (run_self [| "--passes"; workload; "--seconds"; string_of_float seconds |])
  in
  let get k = Option.get (Obs.Json.member k json) in
  let int k = Option.get (Obs.Json.to_int (get k)) in
  let passes =
    List.map (fun j -> Option.get (Obs.Json.to_float j)) (Option.get (Obs.Json.to_list (get "passes")))
  in
  Tally.add tally ~attempted:(int "attempted") ~failed:(int "failed")
    ~first_failure:(match get "first_failure" with Obs.Json.String w -> Some w | _ -> None);
  let median_pass = Stats.median (Array.of_list passes) in
  {
    setup;
    wall_s = median_pass;
    latencies_ms = List.map (fun dt -> Array.make per_pass (dt *. 1000.)) passes;
    requests_per_s = float_of_int per_pass /. median_pass;
    rss_mb = mb_of_kb (int "rss_kb");
  }

(* ---------------- sweep ---------------- *)

let registry = Workloads.Registry.all

(* [jrpm sweep]'s own set-up is loading the expected outputs. *)
let sweep_setup () = Jrpm.Regression.load_baseline baseline_path

let sweep_e2e ~seconds tally =
  let setup, _ = repeat_setup sweep_setup in
  batch_e2e ~workload:"sweep" ~seconds ~setup ~per_pass:(List.length registry) tally

let sweep_passes ~seconds =
  let baseline = sweep_setup () in
  passes_process ~seconds
    ~run:(fun () -> Jrpm.Parallel_sweep.run ~jobs ())
    ~check:(fun tally outcomes ->
      Checks.sweep tally ~baseline
        (List.map (fun (o : Jrpm.Parallel_sweep.outcome) -> o.summary) outcomes))

(* ---------------- explore ---------------- *)

let archive_path = Filename.concat work_dir "archive.jtrc"

let capture_archive () =
  let outcomes = Jrpm.Parallel_sweep.run ~jobs ~capture:true () in
  Trace_store.Writer.to_file ~path:archive_path
    (List.filter_map (fun (o : Jrpm.Parallel_sweep.outcome) -> o.trace) outcomes)

let explore_points () =
  List.length (Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid explore_grid))

(* Each set-up is a fresh process (this program with [--capture]), as a
   capture run by the user is, so no set-up inherits an earlier one's
   heap. *)
let explore_e2e ~seconds tally =
  let setup, _ = repeat_setup (fun () -> ignore (run_self [| "--capture" |])) in
  batch_e2e ~workload:"explore" ~seconds ~setup
    ~per_pass:(explore_points () * List.length registry)
    tally

let explore_passes ~seconds =
  let baseline = sweep_setup () in
  let points = explore_points () and records = List.length registry in
  passes_process ~seconds
    ~run:(fun () -> Jrpm.Explore.run ~jobs ~grid:explore_grid ~path:archive_path ())
    ~check:(fun tally t -> Checks.explore tally ~baseline ~points ~records t)

(* ---------------- serve ---------------- *)

let serve_dir = Filename.concat work_dir "serve"

(* relative, so the socket path stays short wherever the checkout is *)
let socket_path = Filename.concat work_dir "daemon.sock"

(* where the daemon leaves its process tree's peak RSS (kB) on exit *)
let daemon_rss_path = Filename.concat work_dir "daemon-rss-kb"
let daemon_pid = ref None

let stop_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
      daemon_pid := None;
      (try
         let c = Daemon.Client.connect socket_path in
         Fun.protect ~finally:(fun () -> Daemon.Client.close c) (fun () ->
             ignore (Daemon.Client.rpc c Daemon.Shutdown))
       with _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
      ignore (Unix.waitpid [] pid)

let () = at_exit stop_daemon

let start_daemon () =
  flush_all ();
  if Sys.file_exists daemon_rss_path then Sys.remove daemon_rss_path;
  match Unix.fork () with
  | 0 ->
      (* re-exec this program as the daemon: a fresh heap, so the
         daemon's peak RSS is its own and not the bench's *)
      (try Unix.execv Sys.executable_name [| Sys.executable_name; "--daemon"; socket_path |]
       with _ -> ());
      Unix._exit 127
  | pid ->
      daemon_pid := Some pid;
      let deadline = now () +. 30. in
      let rec connect () =
        match Daemon.Client.connect socket_path with
        | c -> c
        | exception Failure _ when now () < deadline ->
            Unix.sleepf 0.005;
            connect ()
      in
      let c = connect () in
      Fun.protect ~finally:(fun () -> Daemon.Client.close c) (fun () ->
          match (Daemon.Client.rpc c Daemon.Ping).Daemon.rsp with
          | Ok _ -> ()
          | Error e -> failwith ("daemon ping failed: " ^ e))

(* Bring a fresh daemon up, then capture the containers. *)
let serve_setup () =
  stop_daemon ();
  start_daemon ();
  mkdir_p serve_dir;
  let ws = List.map Workloads.Registry.find_exn serve_programs in
  let outcomes = Jrpm.Parallel_sweep.run ~jobs ~capture:true ~workloads:ws () in
  let containers =
    List.mapi
      (fun i (o : Jrpm.Parallel_sweep.outcome) ->
        let path = Filename.concat serve_dir (Printf.sprintf "c%02d.jtrc" i) in
        Trace_store.Writer.to_file ~path (Option.to_list o.trace);
        (path, o.workload.Workloads.Workload.name))
      outcomes
  in
  (Array.of_list containers, Jrpm.Regression.load_baseline baseline_path)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable inflight : (int * float) option;  (* request index, send time *)
}

type sample = {
  idx : int;  (* position in the seeded sequence *)
  req : Daemon.request;
  ok : bool;  (* the reply was readable, carried the request's id, and was right *)
  server : (float * int) option;  (* the reply's [elapsed_s] and [queue_depth] *)
  rtt_s : float;
  done_s : float;  (* completion time, from the start of the loop *)
}

let send_frame fd json =
  let payload = Obs.Json.to_string json in
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int64_le b 0 (Int64.of_int len);
  Bytes.blit_string payload 0 b 8 len;
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let take_frame buf =
  let have = Buffer.length buf in
  if have < 8 then None
  else
    let len = Int64.to_int (String.get_int64_le (Buffer.sub buf 0 8) 0) in
    if have < 8 + len then None
    else begin
      let payload = Buffer.sub buf 8 len in
      let rest = Buffer.sub buf (8 + len) (have - 8 - len) in
      Buffer.clear buf;
      Buffer.add_string buf rest;
      Some payload
    end

(* Closed loop: each connection sends its next request of the seeded
   sequence only when its previous reply has arrived; no new request
   starts after [seconds]. [check] judges each reply as it arrives; the
   reply body is then dropped, so the loop's own memory does not grow
   with the request count. Returns the time of the last reply. *)
let closed_loop ~requests ~seconds ~check ~on_sample =
  let conns =
    Array.init jobs (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        { fd; inbuf = Buffer.create 4096; inflight = None })
  in
  let next = ref 0 and t0 = now () and last = ref 0. in
  let send c =
    let i = !next in
    incr next;
    let req = requests.(i mod Array.length requests) in
    c.inflight <- Some (i, now ());
    send_frame c.fd (Daemon.request_to_json { Daemon.id = Obs.Json.Int i; req })
  in
  let chunk = Bytes.create 65536 in
  let receive c =
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "serve: daemon closed a connection";
    Buffer.add_subbytes c.inbuf chunk 0 n;
    let rec drain () =
      match (take_frame c.inbuf, c.inflight) with
      | None, _ -> ()
      | Some _, None -> failwith "serve: reply without a request"
      | Some payload, Some (i, sent) ->
          let t = now () in
          c.inflight <- None;
          let req = requests.(i mod Array.length requests) in
          let ok, server =
            match Daemon.response_of_json (Obs.Json.parse_exn payload) with
            | r when r.Daemon.rsp_id = Obs.Json.Int i ->
                (check req r, Some (r.Daemon.elapsed_s, r.Daemon.queue_depth))
            | _ | (exception _) -> (false, None)
          in
          last := t -. t0;
          on_sample { idx = i; req; ok; server; rtt_s = t -. sent; done_s = t -. t0 };
          if t -. t0 < seconds then send c;
          drain ()
    in
    drain ()
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns)
    (fun () ->
      Array.iter send conns;
      while Array.exists (fun c -> c.inflight <> None) conns do
        let fds =
          Array.to_list conns |> List.filter (fun c -> c.inflight <> None) |> List.map (fun c -> c.fd)
        in
        match Unix.select fds [] [] 60. with
        | [], _, _ -> failwith "serve: no reply within 60 s"
        | readable, _, _ ->
            Array.iter (fun c -> if List.mem c.fd readable then receive c) conns
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done);
  !last

let mix_length = 20_000

let serve_requests ~seed containers =
  Mix.requests ~seed ~containers ~programs:profile_programs mix_length

let count_sample tally s =
  let op =
    match s.req with
    | Daemon.Replay _ -> "replay" | Explore _ -> "explore" | Profile _ -> "profile" | _ -> "other"
  in
  Tally.check tally ~what:("serve " ^ op) s.ok

(* median duration of consecutive blocks of [serve_block] replies *)
let block_wall samples =
  let done_s = Array.of_list (List.map (fun s -> s.done_s) samples) in
  Array.sort Float.compare done_s;
  let blocks = Array.length done_s / serve_block in
  if blocks = 0 then done_s.(Array.length done_s - 1)
  else
    Stats.median
      (Array.init blocks (fun b ->
           let start = if b = 0 then 0. else done_s.((b * serve_block) - 1) in
           done_s.(((b + 1) * serve_block) - 1) -. start))

let serve_e2e ~seed ~seconds tally =
  let setup, (containers, baseline) = repeat_setup serve_setup in
  let requests = serve_requests ~seed containers in
  let samples = ref [] in
  let elapsed =
    closed_loop ~requests ~seconds ~check:(Checks.serve_ok ~baseline) ~on_sample:(fun s ->
        count_sample tally s;
        samples := s :: !samples)
  in
  stop_daemon ();
  (* the daemon and its pool workers; the client's own heap holds the
     set-up's captures and is not the system under test *)
  let daemon_kb =
    match int_of_string_opt (String.trim (In_channel.with_open_bin daemon_rss_path In_channel.input_all)) with
    | Some kb -> kb
    | None -> failwith "serve: the daemon left no peak RSS"
  in
  let samples = !samples in
  {
    setup;
    wall_s = block_wall samples;
    latencies_ms = [ Array.of_list (List.map (fun s -> s.rtt_s *. 1000.) samples) ];
    requests_per_s = float_of_int (List.length samples) /. elapsed;
    rss_mb = mb_of_kb daemon_kb;
  }

(* ---------------- traced run ---------------- *)

(* The traced run composes each layer's public calls in-process, with
   the null observability sink, and sums the time of every call under
   its layer's name.
   A layer that sits inside a stream (the tracer, the encoder, the
   decoder) is timed as the same stream fed to it minus the same
   stream fed to [Hydra.Trace.null_sink]. Layers a workload does not
   exercise stay 0. *)

type layers = {
  sp : Timers.t;
  mutable interp_instr : int;
  mutable tls_cycles : int;
  mutable committed : int;
  mutable violations : int;
  mutable tracer_s : float;
  mutable tracer_events : int;
  mutable encode_s : float;
  mutable encoded_events : int;
  mutable encoded_bytes : int;
  mutable decode_s : float;
  mutable decoded_events : int;
  mutable replay_other_s : float;
}

let new_layers () =
  {
    sp = Timers.create ();
    interp_instr = 0;
    tls_cycles = 0;
    committed = 0;
    violations = 0;
    tracer_s = 0.;
    tracer_events = 0;
    encode_s = 0.;
    encoded_events = 0;
    encoded_bytes = 0;
    decode_s = 0.;
    decoded_events = 0;
    replay_other_s = 0.;
  }

let span l name f = timed (fun () -> Timers.time l.sp name f)
let hw = Hydra.Config.default

(* Timers whose calls are the untraced pipeline's own work; the split
   runs into the null sink and the writer are the tracing's extra. *)
let pipeline_timers =
  [ "ir.frontend"; "compiler.opt"; "compiler.codegen"; "hydra.interp";
    "profile+core.tracer"; "core.analyze"; "hydra.tls" ]

(* [Pipeline.run]'s phases, one layer call at a time. [full] adds the
   base profiling run, the analysis and the TLS run (a sweep or a
   [profile] request); without it only the capture's optimized
   profiling stream is produced (the explore archive), and [encode]
   feeds that stream to the trace-store writer as well. *)
let compose_pipeline l tally ~baseline ~full ~encode (w : Workloads.Workload.t) =
  let name = w.Workloads.Workload.name in
  let src = Workloads.Registry.default_source w in
  Timers.time l.sp ("program " ^ name) @@ fun () ->
  let tac = Timers.time l.sp "ir.frontend" (fun () -> Ir.Lower.compile src) in
  let tac = Timers.time l.sp "compiler.opt" (fun () -> Compiler.Opt.program tac) in
  let table = Timers.time l.sp "compiler.codegen" (fun () -> Compiler.Stl_table.build tac) in
  let codegen mode =
    Timers.time l.sp "compiler.codegen" (fun () -> Compiler.Codegen.generate ~mode table tac)
  in
  let plain = codegen Plain in
  let pr = Timers.time l.sp "hydra.interp" (fun () -> Hydra.Seq_interp.run plain) in
  l.interp_instr <- l.interp_instr + pr.Hydra.Seq_interp.instructions;
  let run_into name prog sink =
    span l name (fun () -> Hydra.Seq_interp.run ~tracing:true ~sink prog)
  in
  let profile prog =
    let _, null_s = run_into "hydra.profile" prog Hydra.Trace.null_sink in
    let tracer = Test_core.Tracer.create ~config:(Test_core.Tracer.config_of hw) () in
    let r, traced_s = run_into "profile+core.tracer" prog (Test_core.Tracer.sink tracer) in
    l.tracer_s <- l.tracer_s +. (traced_s -. null_s);
    l.tracer_events <- l.tracer_events + Test_core.Tracer.events_consumed tracer;
    (tracer, r)
  in
  let opt_prog = codegen (Annotated { optimized = true }) in
  let b = Checks.find_baseline baseline name in
  let same f = match b with Some b -> f b | None -> false in
  if encode then begin
    let _, null_s = run_into "hydra.profile" opt_prog Hydra.Trace.null_sink in
    let writer = Trace_store.Writer.create () in
    let r, written_s = run_into "profile+trace_store.encode" opt_prog (Trace_store.Writer.sink writer) in
    let events = Trace_store.Writer.events writer in
    let bytes, finish_s =
      span l "trace_store.encode" (fun () ->
          Trace_store.Writer.finish ~name ~meta:(Obs.Json.Obj []) writer)
    in
    l.encode_s <- l.encode_s +. (written_s -. null_s) +. finish_s;
    l.encoded_events <- l.encoded_events + events;
    l.encoded_bytes <- l.encoded_bytes + String.length bytes;
    Tally.check tally ~what:("traced capture " ^ name)
      (same (fun b ->
           pr.Hydra.Seq_interp.cycles = b.RS.plain_cycles
           && r.Hydra.Seq_interp.cycles = b.RS.opt.RS.cycles))
  end;
  if full then begin
    ignore (profile (codegen (Annotated { optimized = false })));
    let tracer, optr = profile opt_prog in
    let selection =
      Timers.time l.sp "core.analyze" (fun () ->
          let stats = Test_core.Tracer.stats tracer in
          List.iter (fun (_, s) -> ignore (Test_core.Analyzer.estimate ~config:hw s)) stats;
          Test_core.Analyzer.select ~config:hw ~stats
            ~child_cycles:(Test_core.Tracer.child_cycles tracer)
            ~program_cycles:optr.Hydra.Seq_interp.cycles ())
    in
    let selected =
      List.map (fun (c : Test_core.Analyzer.choice) -> c.chosen_stl) selection.chosen
    in
    let tls = codegen (Tls { selected }) in
    let tr = Timers.time l.sp "hydra.tls" (fun () -> Hydra.Tls_sim.run ~config:hw tls) in
    let st = tr.Hydra.Tls_sim.stats in
    l.tls_cycles <- l.tls_cycles + tr.Hydra.Tls_sim.cycles;
    l.committed <- l.committed + st.Hydra.Tls_sim.threads_committed;
    l.violations <- l.violations + st.Hydra.Tls_sim.violations;
    Tally.check tally ~what:("traced pipeline " ^ name)
      (same (fun b ->
           tr.Hydra.Tls_sim.cycles = b.RS.tls_cycles
           && selection.predicted_speedup = b.RS.predicted_speedup
           && List.equal Ir.Value.equal pr.Hydra.Seq_interp.output tr.Hydra.Tls_sim.output))
  end

let open_container l path =
  Timers.time l.sp "trace_store.open" (fun () ->
      let src = Trace_store.Bytesrc.map_file path in
      (src, Trace_store.Index.of_src src))

(* One record replayed three ways: decode only, decode into a tracer,
   and the untraced call itself ([mirror], named [mirror_name]). *)
let compose_replay l ~src ~config ~mirror_name mirror (e : Trace_store.Index.entry) =
  let reader () =
    let r = Trace_store.Reader.of_src src in
    ignore (Trace_store.Reader.seek_record r ~offset:e.Trace_store.Index.offset);
    r
  in
  let _, decode_s =
    span l "trace_store.decode" (fun () -> Trace_store.Reader.replay (reader ()) Hydra.Trace.null_sink)
  in
  let tracer = Test_core.Tracer.create ~config:(Test_core.Tracer.config_of config) () in
  let _, traced_s =
    span l "decode+core.tracer" (fun () ->
        Trace_store.Reader.replay (reader ()) (Test_core.Tracer.sink tracer))
  in
  let v, mirror_s = span l mirror_name mirror in
  l.decode_s <- l.decode_s +. decode_s;
  l.decoded_events <- l.decoded_events + e.Trace_store.Index.events;
  l.tracer_s <- l.tracer_s +. (traced_s -. decode_s);
  l.tracer_events <- l.tracer_events + Test_core.Tracer.events_consumed tracer;
  l.replay_other_s <- l.replay_other_s +. (mirror_s -. traced_s);
  v

let sched_metrics st =
  let idle, busiest, frames =
    match st with
    | Some (st : Sched.stats) ->
        (Sched.idle_fraction st, st.Sched.max_worker_busy_s, float_of_int st.Sched.frames)
    | None -> (0., 0., 0.)
  in
  [
    m "scheduler.idle_frac" "ratio" idle;
    m "scheduler.max_worker_busy_s" "s" busiest;
    m "scheduler.frames" "count" frames;
  ]

type daemon_layers = {
  cache_hit_ratio : float;
  server_ms_p50 : float;
  transport_ms_p50 : float;
  queue_depth_mean : float;
  worker_deaths : int;
}

let daemon_metrics d =
  let d =
    Option.value d
      ~default:
        { cache_hit_ratio = 0.; server_ms_p50 = 0.; transport_ms_p50 = 0.;
          queue_depth_mean = 0.; worker_deaths = 0 }
  in
  [
    m "daemon.cache_hit_ratio" "ratio" d.cache_hit_ratio;
    m "daemon.server_ms_p50" "ms" d.server_ms_p50;
    m "daemon.transport_ms_p50" "ms" d.transport_ms_p50;
    m "daemon.queue_depth_mean" "count" d.queue_depth_mean;
    m "daemon.worker_deaths" "count" (float_of_int d.worker_deaths);
  ]

let per_mega n s = if s > 0. then float_of_int n /. s /. 1e6 else 0.

let layer_metrics l ~sched ~daemon ~overhead ~coverage =
  let total = Timers.total l.sp in
  let tls_s = total "hydra.tls" and interp_s = total "hydra.interp" in
  [
    m "hydra.tls_s" "s" tls_s;
    m "hydra.tls_mcycles_per_s" "Mcycles/s" (per_mega l.tls_cycles tls_s);
    m "hydra.tls_commit_ratio" "ratio"
      (if l.committed + l.violations = 0 then 0.
       else float_of_int l.committed /. float_of_int (l.committed + l.violations));
    m "hydra.interp_s" "s" interp_s;
    m "hydra.interp_minstr_per_s" "Minstr/s" (per_mega l.interp_instr interp_s);
    m "hydra.profile_s" "s" (total "hydra.profile");
    m "core.tracer_s" "s" l.tracer_s;
    m "core.tracer_mev_per_s" "Mev/s" (per_mega l.tracer_events l.tracer_s);
    m "core.analyze_s" "s" (total "core.analyze");
    m "ir.frontend_s" "s" (total "ir.frontend");
    m "compiler.opt_s" "s" (total "compiler.opt");
    m "compiler.codegen_s" "s" (total "compiler.codegen");
    m "trace_store.decode_s" "s" l.decode_s;
    m "trace_store.decode_mev_per_s" "Mev/s" (per_mega l.decoded_events l.decode_s);
    m "trace_store.encode_s" "s" l.encode_s;
    m "trace_store.encode_mev_per_s" "Mev/s" (per_mega l.encoded_events l.encode_s);
    m "trace_store.bytes_per_event" "B/ev"
      (if l.encoded_events = 0 then 0.
       else float_of_int l.encoded_bytes /. float_of_int l.encoded_events);
    m "trace_store.open_s" "s" (total "trace_store.open");
    m "jrpm.replay_other_s" "s" l.replay_other_s;
  ]
  @ sched_metrics sched
  @ daemon_metrics daemon
  @ [ m "trace.overhead_ratio" "ratio" overhead; m "trace.coverage" "ratio" coverage ]

(* The scheduler pass is the untraced reference: the same tasks the
   workload's entry point runs, on the same pool, with its stats. The
   composed pass then runs the same work sequentially under timers;
   overhead is its wall-clock over the reference's in-task time, and
   coverage is the share of the reference's worker capacity
   (wall x jobs) that the mirroring timers account for. *)
let reference_ratios l ~(st : Sched.stats) ~composed_s ~mirrored =
  let mirrored_s = List.fold_left (fun acc n -> acc +. Timers.total l.sp n) 0. mirrored in
  ( (composed_s /. st.Sched.busy_s) -. 1.,
    mirrored_s /. (st.Sched.wall_s *. float_of_int st.Sched.jobs) )

let sweep_traced l tally =
  let baseline = sweep_setup () in
  let summaries, st =
    Sched.map_stats ~jobs
      (fun _ (w : Workloads.Workload.t) ->
        RS.of_report
          (Jrpm.Pipeline.run ~name:w.Workloads.Workload.name (Workloads.Registry.default_source w)))
      registry
  in
  Checks.sweep tally ~baseline summaries;
  let (), composed_s =
    timed (fun () ->
        List.iter (compose_pipeline l tally ~baseline ~full:true ~encode:false) registry)
  in
  let overhead, coverage = reference_ratios l ~st ~composed_s ~mirrored:pipeline_timers in
  layer_metrics l ~sched:(Some st) ~daemon:None ~overhead ~coverage

let explore_traced l tally =
  capture_archive ();
  let baseline = sweep_setup () in
  (* the set-up's side: the capture's interpreter and encoder *)
  List.iter (compose_pipeline l tally ~baseline ~full:false ~encode:true) registry;
  let configs = Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid explore_grid) in
  let src, entries = open_container l archive_path in
  let tasks = Jrpm.Explore.cell_tasks configs entries in
  let records = List.length entries in
  let cells, st =
    Sched.map_adaptive_stats ~jobs
      ~weights:(fun _ ((_, e) : _ * Trace_store.Index.entry) ->
        float_of_int e.Trace_store.Index.events)
      (fun _ (config, entry) -> Jrpm.Explore.eval_cell ~src config entry)
      tasks
  in
  Checks.explore tally ~baseline ~points:(List.length configs) ~records
    (Jrpm.Explore.assemble ~archive:archive_path ~configs ~records cells);
  let (), composed_s =
    timed (fun () ->
        List.iter
          (fun (config, e) ->
            ignore
              (compose_replay l ~src ~config ~mirror_name:"explore.cell"
                 (fun () -> Jrpm.Explore.eval_cell ~src config e)
                 e))
          tasks)
  in
  let overhead, coverage = reference_ratios l ~st ~composed_s ~mirrored:[ "explore.cell" ] in
  layer_metrics l ~sched:(Some st) ~daemon:None ~overhead ~coverage

(* Requests of the seeded sequence composed in-process after the loop. *)
let serve_composed_requests = 100

let serve_traced l tally ~seed ~seconds =
  let containers, baseline = serve_setup () in
  let requests = serve_requests ~seed containers in
  let half = seconds /. 2. in
  let untraced = ref 0 in
  let untraced_s =
    closed_loop ~requests ~seconds:half ~check:(Checks.serve_ok ~baseline) ~on_sample:(fun s ->
        count_sample tally s;
        incr untraced)
  in
  (* the same loop again, keeping each request's round trip and the
     daemon's reported in-server time *)
  let samples = ref [] in
  let traced_s =
    closed_loop ~requests ~seconds:half ~check:(Checks.serve_ok ~baseline) ~on_sample:(fun s ->
        count_sample tally s;
        samples := s :: !samples)
  in
  let stats =
    let c = Daemon.Client.connect socket_path in
    Fun.protect ~finally:(fun () -> Daemon.Client.close c) (fun () ->
        match (Daemon.Client.rpc c Daemon.Stats).Daemon.rsp with
        | Ok json -> json
        | Error e -> failwith ("daemon stats failed: " ^ e))
  in
  stop_daemon ();
  let samples = List.rev !samples in
  let int_at path =
    List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some stats) path
    |> Fun.flip Option.bind Obs.Json.to_int
    |> Option.value ~default:0
  in
  let hits = int_at [ "mapping_cache"; "hits" ] and misses = int_at [ "mapping_cache"; "misses" ] in
  let replies = List.filter_map (fun s -> Option.map (fun r -> (s, r)) s.server) samples in
  let ms f = Array.of_list (List.map (fun x -> f x *. 1000.) replies) in
  let daemon =
    {
      cache_hit_ratio =
        (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
      server_ms_p50 = Stats.median (ms (fun (_, (elapsed, _)) -> elapsed));
      transport_ms_p50 = Stats.median (ms (fun (s, (elapsed, _)) -> s.rtt_s -. elapsed));
      queue_depth_mean =
        Stats.mean (Array.of_list (List.map (fun (_, (_, depth)) -> float_of_int depth) replies));
      worker_deaths = int_at [ "worker_deaths" ];
    }
  in
  (* the first requests of the sequence, composed layer by layer *)
  let opened = Hashtbl.create 16 in
  let container path =
    match Hashtbl.find_opt opened path with
    | Some c -> c
    | None ->
        let c = open_container l path in
        Hashtbl.replace opened path c;
        c
  in
  let composed = List.filter (fun s -> s.idx < serve_composed_requests) samples in
  List.iter
    (fun s ->
      match s.req with
      | Daemon.Replay { path; record } ->
          let src, entries = container path in
          List.iter
            (fun (e : Trace_store.Index.entry) ->
              if Some e.Trace_store.Index.name = record then
                let o =
                  compose_replay l ~src ~config:hw ~mirror_name:"replay.entry"
                    (fun () -> Jrpm.Replay.replay_entry ~src e)
                    e
                in
                Tally.check tally ~what:("traced replay " ^ o.Jrpm.Replay.name) o.Jrpm.Replay.matches)
            entries
      | Explore { path; grid } ->
          let src, entries = container path in
          let configs = Jrpm.Explore.configs_of_grid (Jrpm.Explore.parse_grid grid) in
          List.iter
            (fun (config, e) ->
              ignore
                (compose_replay l ~src ~config ~mirror_name:"explore.cell"
                   (fun () -> Jrpm.Explore.eval_cell ~src config e)
                   e))
            (Jrpm.Explore.cell_tasks configs entries)
      | Profile w ->
          compose_pipeline l tally ~baseline ~full:true ~encode:false
            (Workloads.Registry.find_exn w)
      | Ping | Stats | Sleep _ | Shutdown -> ())
    composed;
  let server_s =
    List.fold_left
      (fun acc s -> match s.server with Some (elapsed, _) -> acc +. elapsed | None -> acc)
      0. composed
  in
  let mirrored_s =
    List.fold_left (fun acc n -> acc +. Timers.total l.sp n) 0.
      ("replay.entry" :: "explore.cell" :: pipeline_timers)
  in
  let rate n s = float_of_int n /. s in
  layer_metrics l ~sched:None ~daemon:(Some daemon)
    ~overhead:((rate !untraced untraced_s /. rate (List.length samples) traced_s) -. 1.)
    ~coverage:(if server_s > 0. then mirrored_s /. server_s else 0.)

let traced ~workload ~seed ~seconds tally =
  let l = new_layers () in
  let metrics =
    match workload with
    | "sweep" -> sweep_traced l tally
    | "explore" -> explore_traced l tally
    | _ -> serve_traced l tally ~seed ~seconds
  in
  (metrics, Obs.Json.Obj [])

(* ---------------- command line ---------------- *)

let host_json () =
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Int (Sched.core_count ()));
      ("jobs", Obs.Json.Int jobs);
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("hw_fingerprint", Obs.Json.String (Hydra.Config.fingerprint Hydra.Config.default));
    ]

let usage = "main.exe --workload sweep|explore|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let daemon = ref "" and passes = ref "" and capture = ref false in
  Arg.parse
    [
      ("--daemon", Arg.Set_string daemon, "SOCKET: serve as the serve workload's daemon");
      ("--passes", Arg.Set_string passes, "WORKLOAD: run the timed passes of sweep or explore");
      ("--capture", Arg.Set capture, "capture the explore archive");
      ("--workload", Arg.Set_string workload, "sweep, explore or serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "how long to measure");
      ("--trace", Arg.Set_int trace, "1: traced run printing per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !daemon <> "" then begin
    (* [serve] returns after a shutdown request, with its pool reaped *)
    Daemon.serve ~jobs (Daemon.Socket !daemon);
    Trace_store.Atomic_io.write_string ~path:daemon_rss_path (string_of_int (max_rss_kb ()));
    exit 0
  end;
  if !passes <> "" then begin
    (match !passes with
    | "sweep" -> sweep_passes ~seconds:!seconds
    | "explore" -> explore_passes ~seconds:!seconds
    | w -> raise (Arg.Bad ("no passes for " ^ w)));
    exit 0
  end;
  if !capture then begin
    capture_archive ();
    exit 0
  end;
  if not (List.mem !workload [ "sweep"; "explore"; "serve" ]) then begin
    prerr_endline usage;
    exit 2
  end;
  if !seconds <= 0. || !seed < 0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let spec = Metric.load_spec spec_path in
  mkdir_p work_dir;
  let tally = Tally.create () in
  let seconds = !seconds and seed = !seed in
  match
    if !trace = 1 then traced ~workload:!workload ~seed ~seconds tally
    else
      let r =
        match !workload with
        | "sweep" -> sweep_e2e ~seconds tally
        | "explore" -> explore_e2e ~seconds tally
        | _ -> serve_e2e ~seed ~seconds tally
      in
      (e2e_metrics r tally, e2e_info r)
  with
  | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n" !workload (Printexc.to_string e);
      exit 1
  | metrics, info ->
      let declared = if !trace = 1 then spec.Metric.per_layer else spec.Metric.end_to_end in
      (* validated before anything is printed: a metric set that does
         not match BENCHMARK.json raises here and prints no result *)
      let result = Metric.result_line ~declared ~tally metrics in
      Option.iter (Printf.eprintf "perfbench: first failed check: %s\n") tally.Tally.first_failure;
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("workload", Obs.Json.String !workload);
                ("seed", Obs.Json.Int seed);
                ("trace", Obs.Json.Int !trace);
                ("host", host_json ());
                ("detail", info);
              ]));
      print_endline result
