(* The profiling daemon: the shared length framing reads back what it
   wrote and classifies short reads, the wire codec round-trips
   (including through the serialized frame), the mapping cache is a
   correct stat-validated LRU, and a live socket server answers
   concurrent clients with byte-identical results, survives a
   SIGKILLed worker and a client with an oversized length header, and
   never leaves orphaned pool workers behind — even when the daemon
   itself is SIGKILLed. *)

module D = Jrpm.Daemon
module F = Jrpm.Framing
module S = Jrpm.Scheduler

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------------- framing over a pipe ---------------- *)

(* [write] goes into a fresh pipe whose write end is then closed, so
   the reader sees exactly those bytes followed by EOF. *)
let with_pipe write f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> try Unix.close r with Unix.Unix_error _ -> ())
    (fun () ->
      write w;
      Unix.close w;
      f r)

let header len =
  let b = Bytes.create F.header_bytes in
  Bytes.set_int64_le b 0 (Int64.of_int len);
  b

let show_read = function
  | F.Complete b -> "Complete " ^ Bytes.to_string b
  | F.Eof -> "Eof"
  | F.Truncated -> "Truncated"

let test_framing_over_pipe () =
  let check_reads what writes expected =
    with_pipe
      (fun w -> List.iter (F.write_all w) writes)
      (fun r ->
        Alcotest.(check (list string))
          what expected
          (List.rev
             (List.fold_left
                (fun acc _ -> show_read (F.read r) :: acc)
                [] expected)))
  in
  check_reads "frames round-trip, then Eof at the boundary"
    [ F.frame "hello"; F.frame ""; F.frame "{\"id\":1}" ]
    [ "Complete hello"; "Complete "; "Complete {\"id\":1}"; "Eof" ];
  check_reads "EOF mid-header is Truncated"
    [ Bytes.sub (header 5) 0 3 ]
    [ "Truncated" ];
  check_reads "EOF mid-payload is Truncated"
    [ header 5; Bytes.of_string "he" ]
    [ "Truncated" ];
  check_reads "EOF right after the header is Truncated" [ header 5 ]
    [ "Truncated" ];
  (* out-of-range headers are rejected from the header alone — no
     payload buffer is allocated, or a max_int length would fail with
     Invalid_argument instead of Bad_length *)
  List.iter
    (fun len ->
      with_pipe
        (fun w -> F.write_all w (header len))
        (fun r ->
          match F.read r with
          | _ -> Alcotest.failf "length %d must be rejected" len
          | exception F.Bad_length got ->
              Alcotest.(check int) "rejected length reported" len got))
    [ -1; min_int; F.max_frame + 1; max_int ];
  Alcotest.(check int) "payload_length accepts max_frame" F.max_frame
    (F.payload_length (Bytes.to_string (header F.max_frame)))

(* ---------------- codec round-trips ---------------- *)

(* Floats must never be integral: the JSON printer renders 2.0 as "2",
   which reparses as Int — fine on the wire (the daemon's consumers
   coerce), but it would make structural round-trip equality vacuously
   fail for reasons the codec is not responsible for. *)
let gen_nonintegral_float =
  QCheck.Gen.map (fun n -> float_of_int ((2 * n) + 1) /. 16.) (QCheck.Gen.int_bound 500)

let gen_name =
  QCheck.Gen.(small_string ~gen:(char_range 'a' 'z'))

let gen_id =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Obs.Json.Int n) (int_bound 100000);
        map (fun s -> Obs.Json.String s) gen_name;
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return D.Ping;
        map (fun w -> D.Profile w) gen_name;
        map2
          (fun p r -> D.Replay { path = "/tmp/" ^ p; record = r })
          gen_name (option gen_name);
        map2
          (fun p axes ->
            D.Explore
              {
                path = "/tmp/" ^ p;
                grid = List.map (fun (a, v) -> a ^ "=" ^ string_of_int v) axes;
              })
          gen_name
          (small_list (pair gen_name (int_bound 64)));
        return D.Stats;
        map (fun s -> D.Sleep s) gen_nonintegral_float;
        return D.Shutdown;
      ])

let gen_envelope =
  QCheck.Gen.map2 (fun id req -> { D.id; req }) gen_id gen_request

let arb_envelope =
  QCheck.make
    ~print:(fun env -> Obs.Json.to_string (D.request_to_json env))
    gen_envelope

(* through the JSON tree AND through the serialized bytes a frame
   carries — the full parse path a server-side request takes *)
let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec round-trips" ~count:300 arb_envelope
    (fun env ->
      let j = D.request_to_json env in
      D.request_of_json j = Ok env
      && D.request_of_json (Obs.Json.parse_exn (Obs.Json.to_string j))
         = Ok env)

let gen_result_json =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Obs.Json.String s) gen_name;
        map (fun n -> Obs.Json.Int n) (int_bound 100000);
        return (Obs.Json.Bool true);
        return Obs.Json.Null;
        map
          (fun kvs ->
            Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) kvs))
          (small_list (pair gen_name (int_bound 100)));
      ])

let gen_response =
  QCheck.Gen.(
    map
      (fun ((rsp_id, rsp), (elapsed_s, queue_depth, tasks)) ->
        { D.rsp_id; rsp; elapsed_s; queue_depth; tasks })
      (pair
         (pair gen_id
            (oneof
               [
                 map (fun j -> Ok j) gen_result_json;
                 map (fun m -> Error m) gen_name;
               ]))
         (triple gen_nonintegral_float (int_bound 64) (int_bound 64))))

let arb_response =
  QCheck.make
    ~print:(fun r -> Obs.Json.to_string (D.response_to_json r))
    gen_response

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response codec round-trips" ~count:300 arb_response
    (fun r ->
      let j = D.response_to_json r in
      D.response_of_json j = r
      && D.response_of_json (Obs.Json.parse_exn (Obs.Json.to_string j)) = r)

let test_bad_requests_rejected () =
  let rejected what j =
    match D.request_of_json j with
    | Ok _ -> Alcotest.fail (what ^ ": must be rejected")
    | Error _ -> ()
  in
  let open Obs.Json in
  rejected "not an object" (String "ping");
  rejected "missing op" (Obj [ ("id", Int 1) ]);
  rejected "unknown op" (Obj [ ("id", Int 1); ("op", String "frobnicate") ]);
  rejected "profile without workload" (Obj [ ("id", Int 1); ("op", String "profile") ]);
  rejected "replay without path" (Obj [ ("id", Int 1); ("op", String "replay") ]);
  rejected "negative sleep"
    (Obj [ ("id", Int 1); ("op", String "sleep"); ("seconds", Float (-1.)) ]);
  rejected "NaN sleep"
    (Obj [ ("id", Int 1); ("op", String "sleep"); ("seconds", Float Float.nan) ])

(* ---------------- the mapping cache ---------------- *)

let write_container path names =
  let record name =
    let w = Trace_store.Writer.create () in
    let sink = Trace_store.Writer.sink w in
    Trace_store.Event.apply sink (Trace_store.Event.Return { now = 1 });
    Trace_store.Writer.finish ~name ~meta:(Obs.Json.Obj []) w
  in
  Trace_store.Atomic_io.write_string ~path
    (Trace_store.Writer.container (List.map record names))

let entry_names entries =
  List.map
    (fun (e : Trace_store.Index.entry) -> e.Trace_store.Index.name)
    entries

let test_mapping_cache_lru () =
  let tmp name =
    let p = Filename.temp_file ("jrpm_cache_" ^ name) ".jtrc" in
    write_container p [ name ];
    p
  in
  let a = tmp "a" and b = tmp "b" and c = tmp "c" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ a; b; c ])
    (fun () ->
      let cache = D.Mapping_cache.create ~capacity:2 () in
      let get p = ignore (D.Mapping_cache.get_entries cache p) in
      get a;
      get b;
      Alcotest.(check (list string)) "MRU order" [ b; a ]
        (D.Mapping_cache.cached cache);
      get a (* hit: refreshes a to the front *);
      Alcotest.(check (list string)) "hit refreshes order" [ a; b ]
        (D.Mapping_cache.cached cache);
      get c (* brand-new path past capacity: evicts the LRU tail, b *);
      Alcotest.(check (list string)) "eviction drops LRU" [ c; a ]
        (D.Mapping_cache.cached cache);
      let hits, misses, evictions = D.Mapping_cache.stats cache in
      Alcotest.(check int) "hits" 1 hits;
      Alcotest.(check int) "misses" 3 misses;
      Alcotest.(check int) "evictions" 1 evictions;
      (* an atomically re-captured container (different size ⇒ stat
         mismatch) must remap — a miss, not an eviction *)
      Alcotest.(check (list string)) "pre-rewrite entries" [ "a" ]
        (entry_names (D.Mapping_cache.get_entries cache a));
      write_container a [ "a1"; "a2" ];
      Alcotest.(check (list string)) "stale mapping remapped" [ "a1"; "a2" ]
        (entry_names (D.Mapping_cache.get_entries cache a));
      let hits', misses', evictions' = D.Mapping_cache.stats cache in
      Alcotest.(check int) "stale remap is a miss" (misses + 1) misses';
      Alcotest.(check int) "stale remap is no eviction" evictions evictions';
      Alcotest.(check int) "plus the one pre-rewrite hit" (hits + 1) hits';
      (* a deleted container surfaces as Corrupt, naming the path *)
      Sys.remove b;
      match D.Mapping_cache.get_entries cache b with
      | _ -> Alcotest.fail "deleted container must not resolve"
      | exception Trace_store.Reader.Corrupt msg ->
          Alcotest.(check bool) ("names the path: " ^ msg) true
            (contains ~needle:b msg))

(* ---------------- live server ---------------- *)

let spawn_daemon ~jobs =
  let sock = Filename.temp_file "jrpm_daemon" ".sock" in
  Sys.remove sock;
  match Unix.fork () with
  | 0 ->
      (try D.serve ~jobs (D.Socket sock) with _ -> ());
      Unix._exit 0
  | pid -> (pid, sock)

let connect_retry sock =
  let rec go tries =
    match D.Client.connect sock with
    | c -> c
    | exception Failure _ when tries > 0 ->
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 100

let rpc_ok what client req =
  let r = D.Client.rpc client req in
  match r.D.rsp with
  | Ok json -> json
  | Error msg -> Alcotest.fail (Printf.sprintf "%s failed: %s" what msg)

let jlist what = function
  | Some (Obs.Json.List l) -> l
  | _ -> Alcotest.fail ("malformed result: no " ^ what)

(* stats helpers used by the worker-death tests *)
let stats_workers json =
  List.map
    (fun w ->
      match
        (Obs.Json.member "pid" w, Obs.Json.member "busy" w)
      with
      | Some (Obs.Json.Int pid), Some (Obs.Json.Bool busy) -> (pid, busy)
      | _ -> Alcotest.fail "malformed stats workers")
    (jlist "workers" (Obs.Json.member "workers" json))

let test_server_end_to_end () =
  if not S.fork_available then ()
  else begin
    (* one real capture the replay requests share *)
    let container = Filename.temp_file "jrpm_daemon" ".jtrc" in
    let w = Workloads.Registry.find_exn "fft" in
    let _report, record =
      Jrpm.Replay.capture_run ~name:"fft" (Workloads.Registry.default_source w)
    in
    Trace_store.Writer.to_file ~path:container [ record ];
    let daemon_pid, sock = spawn_daemon ~jobs:2 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ());
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ container; sock ])
      (fun () ->
        let c1 = connect_retry sock in
        let c2 = connect_retry sock in
        (* ping *)
        (match rpc_ok "ping" c1 D.Ping with
        | Obs.Json.String "pong" -> ()
        | j -> Alcotest.fail ("ping: " ^ Obs.Json.to_string j));
        (* profile: byte-identical to the in-process pipeline *)
        let expected =
          Obs.Json.to_string
            (Jrpm.Report_summary.to_json
               (Jrpm.Report_summary.of_report
                  (Jrpm.Pipeline.run ~name:"fft"
                     (Workloads.Registry.default_source w))))
        in
        (match
           Obs.Json.member "summary" (rpc_ok "profile" c1 (D.Profile "fft"))
         with
        | Some sj ->
            Alcotest.(check string) "daemon profile = in-process pipeline"
              expected (Obs.Json.to_string sj)
        | None -> Alcotest.fail "profile result has no summary");
        (* unknown workload: an error response, not a dead daemon *)
        (match (D.Client.rpc c1 (D.Profile "no-such-workload")).D.rsp with
        | Error msg ->
            Alcotest.(check bool) ("names the workload: " ^ msg) true
              (contains ~needle:"no-such-workload" msg)
        | Ok _ -> Alcotest.fail "unknown workload must error");
        (* concurrent clients replaying the same container get
           byte-identical summaries, equal to the one-shot replay *)
        let oneshot =
          Obs.Json.to_string
            (Obs.Json.List
               (jlist "summaries"
                  (Obs.Json.member "summaries"
                     (D.execute ~jobs:1
                        (D.Replay { path = container; record = None })))))
        in
        let id1 =
          D.Client.send c1 (D.Replay { path = container; record = None })
        in
        let id2 =
          D.Client.send c2 (D.Replay { path = container; record = None })
        in
        let summaries_of (r : D.response) =
          match r.D.rsp with
          | Ok json ->
              Obs.Json.to_string
                (Obs.Json.List (jlist "summaries" (Obs.Json.member "summaries" json)))
          | Error msg -> Alcotest.fail ("replay failed: " ^ msg)
        in
        let r1 = D.Client.recv c1 and r2 = D.Client.recv c2 in
        Alcotest.(check bool) "ids echoed" true
          (r1.D.rsp_id = id1 && r2.D.rsp_id = id2);
        Alcotest.(check string) "client 1 = one-shot replay" oneshot
          (summaries_of r1);
        Alcotest.(check string) "client 2 = one-shot replay" oneshot
          (summaries_of r2);
        (* explore: one pool task per record (not per grid cell), and
           the matrix byte-identical to the one-shot run *)
        let grid = [ "cpus=8"; "store_buffer=32" ] in
        let r = D.Client.rpc c2 (D.Explore { path = container; grid }) in
        (match r.D.rsp with
        | Ok json ->
            Alcotest.(check string) "daemon explore = one-shot explore"
              (Obs.Json.to_string
                 (Jrpm.Explore.to_json
                    (Jrpm.Explore.run ~jobs:1 ~grid ~path:container ())))
              (Obs.Json.to_string json)
        | Error msg -> Alcotest.fail ("explore failed: " ^ msg));
        Alcotest.(check int) "one explore task per record" 1 r.D.tasks;
        (* a worker SIGKILLed mid-request errors only that request *)
        let sleep_id = D.Client.send c1 (D.Sleep 30.) in
        let busy_pid =
          let rec find tries =
            if tries = 0 then Alcotest.fail "no busy worker appeared"
            else
              match
                List.find_opt snd (stats_workers (rpc_ok "stats" c2 D.Stats))
              with
              | Some (pid, _) -> pid
              | None ->
                  Unix.sleepf 0.05;
                  find (tries - 1)
          in
          find 100
        in
        Unix.kill busy_pid Sys.sigkill;
        let r = D.Client.recv c1 in
        Alcotest.(check bool) "sleep id echoed" true (r.D.rsp_id = sleep_id);
        (match r.D.rsp with
        | Error msg ->
            Alcotest.(check bool) ("kill is attributed: " ^ msg) true
              (contains ~needle:"SIGKILL" msg)
        | Ok _ -> Alcotest.fail "killed worker's request cannot succeed");
        (* ...and the pool keeps serving other requests afterwards *)
        (match
           Obs.Json.member "summary" (rpc_ok "post-kill profile" c2 (D.Profile "fft"))
         with
        | Some sj ->
            Alcotest.(check string) "post-kill result still byte-identical"
              expected (Obs.Json.to_string sj)
        | None -> Alcotest.fail "post-kill profile has no summary");
        let stats = rpc_ok "stats" c2 D.Stats in
        (match Obs.Json.member "worker_deaths" stats with
        | Some (Obs.Json.Int n) ->
            Alcotest.(check int) "the death was counted" 1 n
        | _ -> Alcotest.fail "stats has no worker_deaths");
        (* clean shutdown *)
        (match rpc_ok "shutdown" c2 D.Shutdown with
        | Obs.Json.String "bye" -> ()
        | j -> Alcotest.fail ("shutdown: " ^ Obs.Json.to_string j));
        D.Client.close c1;
        D.Client.close c2;
        match Unix.waitpid [] daemon_pid with
        | _, Unix.WEXITED 0 -> ()
        | _, status ->
            Alcotest.fail
              (Printf.sprintf "daemon exited abnormally (%s)"
                 (match status with
                 | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                 | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                 | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)))
  end

(* [container] with one byte flipped in the middle of its first
   record's first events payload. *)
let flip_events_byte container =
  let src = Trace_store.Bytesrc.of_string container in
  let limit = String.length container in
  let e = List.hd (Trace_store.Index.of_string container) in
  (* the record-begin frame, then the first events frame *)
  let pos = ref (e.Trace_store.Index.offset + 1) in
  let begin_len = Trace_store.Varint.read_unsigned_src src ~limit pos in
  pos := !pos + begin_len + 1;
  let events_len = Trace_store.Varint.read_unsigned_src src ~limit pos in
  let b = Bytes.of_string container in
  let i = !pos + (events_len / 2) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
  Bytes.to_string b

(* One request path: [execute] in this process returns, byte for byte,
   the result the socket server sends for the same request, and fails
   on bad input with exactly the server's error text. *)
let test_execute_equals_server () =
  if not S.fork_available then ()
  else begin
    let container = Filename.temp_file "jrpm_execute" ".jtrc" in
    Trace_store.Writer.to_file ~path:container
      (List.map
         (fun name ->
           snd
             (Jrpm.Replay.capture_run ~name
                (Workloads.Registry.default_source
                   (Workloads.Registry.find_exn name))))
         [ "fft"; "db" ]);
    let empty = Filename.temp_file "jrpm_execute_empty" ".jtrc" in
    Trace_store.Atomic_io.write_string ~path:empty
      (Trace_store.Writer.container []);
    let corrupt = Filename.temp_file "jrpm_execute_corrupt" ".jtrc" in
    Trace_store.Atomic_io.write_string ~path:corrupt
      (flip_events_byte
         (In_channel.with_open_bin container In_channel.input_all));
    let daemon_pid, sock = spawn_daemon ~jobs:2 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ());
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ container; empty; corrupt; sock ])
      (fun () ->
        let c = connect_retry sock in
        let server req =
          Result.map Obs.Json.to_string (D.Client.rpc c req).D.rsp
        in
        let local ?(jobs = 2) req =
          match D.execute ~jobs req with
          | json -> Ok (Obs.Json.to_string json)
          | exception Trace_store.Reader.Corrupt msg ->
              Error ("corrupt container: " ^ msg)
          | exception (Failure msg | Invalid_argument msg) -> Error msg
        in
        (* a corrupt record fails with the typed error whichever worker
           decoded it: the same [Corrupt] at one job and at two *)
        let corrupt_replay = D.Replay { path = corrupt; record = None } in
        Alcotest.(check (result string string))
          "corrupt record: jobs 2 = jobs 1" (local ~jobs:1 corrupt_replay)
          (local corrupt_replay);
        List.iter
          (fun (what, ok, req) ->
            let expected = server req in
            Alcotest.(check bool) (what ^ ": succeeds") ok
              (Result.is_ok expected);
            Alcotest.(check (result string string)) what expected (local req))
          [
            ("profile", true, D.Profile "fft");
            ("replay", true, D.Replay { path = container; record = None });
            ( "replay one record",
              true,
              D.Replay { path = container; record = Some "fft" } );
            ( "explore",
              true,
              D.Explore
                { path = container; grid = [ "cpus=2,8"; "store_buffer=32" ] }
            );
            ("unknown workload", false, D.Profile "no-such-workload");
            ( "missing record",
              false,
              D.Replay { path = container; record = Some "no-such-record" } );
            ( "malformed grid",
              false,
              D.Explore { path = container; grid = [ "cpus" ] } );
            ( "out-of-range grid point",
              false,
              D.Explore { path = container; grid = [ "cpus=0" ] } );
            ( "missing container",
              false,
              D.Replay { path = container ^ ".missing"; record = None } );
            (* a fan-out of zero tasks must still be answered, with an
               empty result as the one-shot commands print *)
            ( "explore, no records",
              true,
              D.Explore { path = empty; grid = [ "cpus=8" ] } );
            ("replay, no records", true, D.Replay { path = empty; record = None });
            ("corrupt record", false, corrupt_replay);
            ( "explore, corrupt record",
              false,
              D.Explore { path = corrupt; grid = [ "cpus=8" ] } );
          ];
        match D.execute ~jobs:1 D.Ping with
        | _ -> Alcotest.fail "execute must refuse ping"
        | exception Invalid_argument _ -> ())
  end

(* Framing under pipelining: many requests written back to back, the
   byte stream cut at arbitrary boundaries (and then one burst in a
   single write), must each get exactly one reply, in request order —
   whatever the reads the server sees, a partial frame left behind a
   consumed prefix must survive the buffer compaction. *)
let test_pipelined_split_frames () =
  if not S.fork_available then ()
  else begin
    let daemon_pid, sock = spawn_daemon ~jobs:1 in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* a server that drops the connection must fail the test (EPIPE),
       not kill it before it can reap the daemon *)
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigpipe sigpipe;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ());
        try Sys.remove sock with Sys_error _ -> ())
      (fun () ->
        let rec connect tries =
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () -> ()
          | exception Unix.Unix_error _ when tries > 0 ->
              Unix.sleepf 0.05;
              connect (tries - 1)
        in
        connect 100;
        (* a lost or stuck frame fails the test instead of hanging it *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
        let frame id =
          let payload =
            Obs.Json.to_string
              (D.request_to_json { D.id = Obs.Json.Int id; req = D.Ping })
          in
          let b = Bytes.create (8 + String.length payload) in
          Bytes.set_int64_le b 0 (Int64.of_int (String.length payload));
          Bytes.blit_string payload 0 b 8 (String.length payload);
          b
        in
        let stream ids = Bytes.concat Bytes.empty (List.map frame ids) in
        let write b off len =
          let pos = ref off in
          while !pos < off + len do
            pos := !pos + Unix.write fd b !pos (off + len - !pos)
          done
        in
        let read_exact n =
          let b = Bytes.create n in
          let pos = ref 0 in
          while !pos < n do
            match Unix.read fd b !pos (n - !pos) with
            | 0 -> Alcotest.fail "server closed the connection"
            | k -> pos := !pos + k
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                Alcotest.fail "no reply within 20s"
          done;
          b
        in
        let expect_replies ids =
          List.iter
            (fun id ->
              let len = Int64.to_int (Bytes.get_int64_le (read_exact 8) 0) in
              let r =
                D.response_of_json
                  (Obs.Json.parse_exn (Bytes.to_string (read_exact len)))
              in
              Alcotest.(check string)
                (Printf.sprintf "reply %d in order" id)
                (Obs.Json.to_string (Obs.Json.Int id))
                (Obs.Json.to_string r.D.rsp_id);
              match r.D.rsp with
              | Ok (Obs.Json.String "pong") -> ()
              | _ -> Alcotest.failf "request %d: not a pong" id)
            ids
        in
        let rng = Random.State.make [| 12 |] in
        let split = List.init 40 Fun.id in
        let b = stream split in
        let off = ref 0 in
        while !off < Bytes.length b do
          let n = min (1 + Random.State.int rng 23) (Bytes.length b - !off) in
          write b !off n;
          off := !off + n;
          (* pause now and then so the server sees separate reads *)
          if Random.State.int rng 3 = 0 then Unix.sleepf 0.001
        done;
        expect_replies split;
        let burst = List.init 40 (fun i -> 100 + i) in
        let b = stream burst in
        write b 0 (Bytes.length b);
        expect_replies burst)
  end

(* An out-of-range length header is the one framing error that closes
   a connection: the server drops that client (it reads EOF, no reply)
   and keeps serving everyone else. A request header above
   [D.max_request] is out of range even where [Framing] would accept
   it. *)
let test_oversized_header_closes_connection () =
  if not S.fork_available then ()
  else begin
    let daemon_pid, sock = spawn_daemon ~jobs:1 in
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigpipe sigpipe;
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ());
        try Sys.remove sock with Sys_error _ -> ())
      (fun () ->
        let good = connect_retry sock in
        Fun.protect
          ~finally:(fun () -> D.Client.close good)
          (fun () ->
            List.iter
              (fun len ->
                let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                Fun.protect
                  ~finally:(fun () ->
                    try Unix.close fd with Unix.Unix_error _ -> ())
                  (fun () ->
                    Unix.connect fd (Unix.ADDR_UNIX sock);
                    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
                    F.write_all fd (header len);
                    match F.read fd with
                    | F.Eof -> ()
                    | r ->
                        Alcotest.failf
                          "%d-byte header: expected EOF, got %s" len
                          (show_read r)
                    | exception
                        Unix.Unix_error
                          ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                        Alcotest.failf
                          "%d-byte header: connection not closed within 20s"
                          len);
                match (D.Client.rpc good D.Ping).D.rsp with
                | Ok (Obs.Json.String "pong") -> ()
                | _ -> Alcotest.fail "second client: ping not answered")
              (* between the two caps, then past Framing's *)
              [ D.max_request + 1; F.max_frame + 1 ]))
  end

(* A client that shut down its receiving side makes the reply write
   fail with EPIPE; the server must close that connection's fd, not
   just forget the connection — once the fd limit is reached, accept
   fails and no new client can connect. Linux-only: it counts the
   daemon's open fds in /proc. *)
let test_epipe_releases_fd () =
  let fd_dir pid = Printf.sprintf "/proc/%d/fd" pid in
  if not (S.fork_available && Sys.file_exists (fd_dir (Unix.getpid ()))) then
    ()
  else begin
    let daemon_pid, sock = spawn_daemon ~jobs:1 in
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let fd_count () = Array.length (Sys.readdir (fd_dir daemon_pid)) in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigpipe sigpipe;
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ());
        try Sys.remove sock with Sys_error _ -> ())
      (fun () ->
        (* the probe stays connected throughout, so the starting count
           includes it and its round trips pace the server *)
        let probe = connect_retry sock in
        ignore (rpc_ok "ping" probe D.Ping);
        let start = fd_count () in
        let ping =
          F.frame
            (Obs.Json.to_string
               (D.request_to_json { D.id = Obs.Json.Int 0; req = D.Ping }))
        in
        let deaf =
          List.init 20 (fun _ ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX sock);
              Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
              F.write_all fd ping;
              fd)
        in
        ignore (rpc_ok "ping" probe D.Ping);
        List.iter Unix.close deaf;
        let deadline = Unix.gettimeofday () +. 5. in
        let rec settled () =
          ignore (rpc_ok "ping" probe D.Ping);
          let n = fd_count () in
          if n = start || Unix.gettimeofday () > deadline then n
          else begin
            Unix.sleepf 0.05;
            settled ()
          end
        in
        Alcotest.(check int) "daemon fd count back to its start" start
          (settled ());
        D.Client.close probe)
  end

(* A client pipelines two requests and then stops receiving: the first
   reply's write fails with EPIPE and releases the connection, closing
   its fd. The second reply must then be dropped along with anything
   still queued, not written to that fd number: with no client on it the
   write fails with EBADF, which would stop the daemon, and a client
   accepted in the meantime is given the same number and would read a
   reply it never asked for under its own first id. *)
let test_released_conn_never_written () =
  if not S.fork_available then ()
  else begin
    let daemon_pid, sock = spawn_daemon ~jobs:2 in
    let deaf = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigpipe sigpipe;
        (try Unix.close deaf with Unix.Unix_error _ -> ());
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ());
        try Sys.remove sock with Sys_error _ -> ())
      (fun () ->
        let sleep id s =
          F.frame
            (Obs.Json.to_string
               (D.request_to_json { D.id = Obs.Json.Int id; req = D.Sleep s }))
        in
        (* wait for the daemon to listen *)
        D.Client.close (connect_retry sock);
        Unix.connect deaf (Unix.ADDR_UNIX sock);
        F.write_all deaf (Bytes.cat (sleep 0 0.1) (sleep 1 0.6));
        Unix.shutdown deaf Unix.SHUTDOWN_RECEIVE;
        (* the first reply has failed and its fd is free; the next
           client is given that number before the second reply is due *)
        Unix.sleepf 0.3;
        let fresh = connect_retry sock in
        Unix.sleepf 0.6;
        let id = D.Client.send fresh D.Ping in
        let r = D.Client.recv fresh in
        Alcotest.(check string) "the new client's reply carries its id"
          (Obs.Json.to_string id)
          (Obs.Json.to_string r.D.rsp_id);
        (match r.D.rsp with
        | Ok (Obs.Json.String "pong") -> ()
        | Ok j -> Alcotest.fail ("new client got " ^ Obs.Json.to_string j)
        | Error msg -> Alcotest.fail ("new client got an error: " ^ msg));
        (match (D.Client.rpc fresh D.Ping).D.rsp with
        | Ok (Obs.Json.String "pong") -> ()
        | _ -> Alcotest.fail "daemon stopped answering");
        D.Client.close fresh)
  end

(* The orphan bugfix: SIGKILL the daemon itself — no at_exit, no
   signal handler runs — and every pool worker must still exit,
   because the kernel closing the daemon's pipe ends EOFs the idle
   workers and EPIPEs the busy one after its task. *)
let test_no_orphans_after_daemon_sigkill () =
  if not S.fork_available then ()
  else begin
    let daemon_pid, sock = spawn_daemon ~jobs:2 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ());
        try Sys.remove sock with Sys_error _ -> ())
      (fun () ->
        let c = connect_retry sock in
        let workers =
          List.map fst (stats_workers (rpc_ok "stats" c D.Stats))
        in
        Alcotest.(check int) "two workers" 2 (List.length workers);
        (* keep one worker mid-task so the EPIPE path is exercised too *)
        ignore (D.Client.send c (D.Sleep 1.0));
        Unix.sleepf 0.1;
        Unix.kill daemon_pid Sys.sigkill;
        ignore (Unix.waitpid [] daemon_pid);
        D.Client.close c;
        (* workers are children of the daemon, not of us: we cannot
           waitpid them, so poll for their disappearance *)
        let deadline = Unix.gettimeofday () +. 10. in
        let rec gone pid =
          match Unix.kill pid 0 with
          | () ->
              if Unix.gettimeofday () > deadline then false
              else begin
                Unix.sleepf 0.05;
                gone pid
              end
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
        in
        List.iter
          (fun pid ->
            Alcotest.(check bool)
              (Printf.sprintf "worker %d exited after daemon SIGKILL" pid)
              true (gone pid))
          workers)
  end

let suites =
  [
    ( "daemon.framing",
      [ Alcotest.test_case "frames over a pipe" `Quick test_framing_over_pipe ]
    );
    ( "daemon.codec",
      [
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_response_roundtrip;
        Alcotest.test_case "malformed requests rejected" `Quick
          test_bad_requests_rejected;
      ] );
    ( "daemon.cache",
      [
        Alcotest.test_case "LRU eviction, stale remap, missing file" `Quick
          test_mapping_cache_lru;
      ] );
    ( "daemon.server",
      [
        Alcotest.test_case "socket server end-to-end" `Quick
          test_server_end_to_end;
        Alcotest.test_case "no orphan workers after daemon SIGKILL" `Quick
          test_no_orphans_after_daemon_sigkill;
        Alcotest.test_case "pipelined frames split at any byte" `Quick
          test_pipelined_split_frames;
        Alcotest.test_case "oversized header closes only that client" `Quick
          test_oversized_header_closes_connection;
        Alcotest.test_case "execute = server, results and errors" `Quick
          test_execute_equals_server;
        Alcotest.test_case "EPIPE on a reply closes the fd" `Quick
          test_epipe_releases_fd;
        Alcotest.test_case "a released connection is never written" `Quick
          test_released_conn_never_written;
      ] );
  ]
