(* The work-stealing scheduler: [Scheduler.map ~jobs f xs] must be
   observably [List.mapi f xs] — same results, same order — for any
   worker count, task mix, or completion order; failures (task
   exceptions, killed workers) surface as [Failure] naming the task
   that was running; and no worker outlives a map call. *)

module S = Jrpm.Scheduler

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---------------- the ordering guarantee ---------------- *)

(* Pure task function whose value-derived sleep scrambles completion
   order across workers without breaking determinism: some tasks dally,
   some return immediately, so a fast worker overtakes a slow one on
   almost every run. *)
let slow_double i x =
  if x land 3 = 0 then Unix.sleepf (float_of_int (x land 7) /. 4000.);
  (i, (2 * x) + 1)

let prop_map_equals_mapi =
  QCheck.Test.make
    ~name:"map equals in-process mapi for any jobs / task mix" ~count:20
    QCheck.(
      pair (int_range 1 8) (list_of_size Gen.(int_range 0 20) (int_range 0 1000)))
    (fun (jobs, items) ->
      S.map ~jobs slow_double items = List.mapi slow_double items)

let test_order_with_skew () =
  (* the first task is far heavier than the rest: its result must still
     come first even though every other task finishes before it *)
  let items = 60 :: List.init 11 (fun _ -> 0) in
  let f i ms =
    Unix.sleepf (float_of_int ms /. 1000.);
    i
  in
  Alcotest.(check (list int))
    "input order preserved under skew"
    (List.init 12 Fun.id)
    (S.map ~jobs:4 f items)

let test_edges () =
  let id _ x = x in
  Alcotest.(check (list int)) "empty" [] (S.map ~jobs:4 id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (S.map ~jobs:4 id [ 7 ]);
  Alcotest.(check (list int))
    "more workers than tasks" [ 1; 2 ]
    (S.map ~jobs:16 id [ 1; 2 ]);
  Alcotest.(check (list int))
    "jobs 0 treated as sequential" [ 5; 6 ]
    (S.map ~jobs:0 id [ 5; 6 ])

let test_stats_accounting () =
  let items = List.init 8 Fun.id in
  let _, st =
    S.map_stats ~jobs:4
      (fun _ x ->
        Unix.sleepf 0.002;
        x)
      items
  in
  Alcotest.(check int) "tasks counted" 8 st.S.tasks;
  Alcotest.(check int) "jobs reported" 4 st.S.jobs;
  Alcotest.(check bool) "wall-clock positive" true (st.S.wall_s > 0.);
  Alcotest.(check bool) "busy time positive" true (st.S.busy_s > 0.);
  Alcotest.(check bool) "max worker busy <= total busy" true
    (st.S.max_worker_busy_s <= st.S.busy_s +. 1e-9);
  let f = S.idle_fraction st in
  Alcotest.(check bool) "idle fraction in [0,1]" true (f >= 0. && f <= 1.)

(* ---------------- adaptive frame planning ---------------- *)

let sorted_concat frames = List.sort compare (List.concat frames)

let frame_weight w fr = List.fold_left (fun acc i -> acc +. w.(i)) 0. fr

let prop_plan_frames_partition =
  QCheck.Test.make
    ~name:"plan_frames partitions the indices, for any jobs / weights"
    ~count:100
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 0 40) (float_range (-10.) 100.)))
    (fun (jobs, weights) ->
      let w = Array.of_list weights in
      let frames = S.plan_frames ~jobs w in
      sorted_concat frames = List.init (Array.length w) Fun.id
      && List.for_all (fun fr -> fr <> []) frames)

let test_plan_frames_policy () =
  (* one giant item among tiny ones: the giant is a singleton frame and
     dispatches first (LPT + split threshold), the tiny items coalesce *)
  let w = Array.append (Array.make 16 1.) [| 100. |] in
  let frames = S.plan_frames ~jobs:4 w in
  (match frames with
  | [ 16 ] :: _ -> ()
  | _ -> Alcotest.fail "giant item must lead as a singleton frame");
  Alcotest.(check bool) "tiny items coalesce below one-per-frame" true
    (List.length frames < Array.length w);
  (* every coalesced frame stays near the target: no frame except the
     giant's exceeds target + one item's weight *)
  let target = Array.fold_left ( +. ) 0. w /. float_of_int (4 * 4) in
  List.iter
    (fun fr ->
      if fr <> [ 16 ] then
        Alcotest.(check bool) "coalesced frame near target" true
          (frame_weight w fr <= target +. 1.))
    frames;
  (* all-zero weights degrade to FIFO singletons in index order *)
  Alcotest.(check bool) "zero weights = FIFO singletons" true
    (S.plan_frames ~jobs:4 (Array.make 5 0.) = List.init 5 (fun i -> [ i ]));
  (* negative weights are clamped, not propagated *)
  Alcotest.(check bool) "negative weights still partition" true
    (sorted_concat (S.plan_frames ~jobs:2 [| -1.; 3.; -5.; 2. |])
    = [ 0; 1; 2; 3 ]);
  (* deterministic: same weights, same plan *)
  let w2 = Array.init 23 (fun i -> float_of_int ((i * 7) mod 11)) in
  Alcotest.(check bool) "plan is deterministic" true
    (S.plan_frames ~jobs:3 w2 = S.plan_frames ~jobs:3 w2)

let prop_adaptive_equals_mapi =
  QCheck.Test.make
    ~name:"map_adaptive equals in-process mapi for any jobs / weights"
    ~count:20
    QCheck.(
      pair (int_range 1 8) (list_of_size Gen.(int_range 0 20) (int_range 0 1000)))
    (fun (jobs, items) ->
      S.map_adaptive ~jobs
        ~weights:(fun _ x -> float_of_int x)
        slow_double items
      = List.mapi slow_double items)

let test_adaptive_stats_frames () =
  let items = List.init 32 (fun i -> if i = 0 then 100 else 1) in
  let _, st =
    S.map_adaptive_stats ~jobs:4
      ~weights:(fun _ x -> float_of_int x)
      (fun _ x -> x)
      items
  in
  Alcotest.(check int) "tasks counted" 32 st.S.tasks;
  Alcotest.(check bool) "coalescing hands out fewer frames than tasks" true
    (st.S.frames < st.S.tasks);
  let _, st_fifo = S.map_stats ~jobs:4 (fun _ x -> x) items in
  Alcotest.(check int) "FIFO frames = tasks" 32 st_fifo.S.frames

(* ---------------- failure semantics ---------------- *)

let test_task_error_names_task () =
  let f i x = if i = 5 then failwith "boom" else x in
  match S.map ~jobs:3 f (List.init 9 Fun.id) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool)
        ("failure names the task: " ^ msg)
        true
        (contains ~needle:"task 5" msg);
      Alcotest.(check bool)
        ("failure carries the error: " ^ msg)
        true
        (contains ~needle:"boom" msg)

let test_custom_labels () =
  let f i x = if i = 1 then failwith "nope" else x in
  match
    S.map ~jobs:2
      ~label:(fun _ x -> "item " ^ string_of_int x)
      f [ 10; 20; 30 ]
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool)
        ("failure uses the custom label: " ^ msg)
        true
        (contains ~needle:"item 20" msg)

let test_killed_worker_names_task () =
  if not S.fork_available then ()
  else
    (* the task kills its own worker process mid-task: the parent must
       detect the dead worker, name the task it was running, and fail
       cleanly instead of hanging on the missing result *)
    let f i x =
      if i = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill;
      x
    in
    match S.map ~jobs:2 f (List.init 8 Fun.id) with
    | _ -> Alcotest.fail "expected Failure after a killed worker"
    | exception Failure msg ->
        Alcotest.(check bool)
          ("failure names the in-flight task: " ^ msg)
          true
          (contains ~needle:"task 2" msg);
        Alcotest.(check bool)
          ("failure reports the wait status: " ^ msg)
          true
          (contains ~needle:"SIGKILL" msg)

let test_frame_failures () =
  if not S.fork_available then ()
  else begin
    (* 32 equal weights at jobs 2 → a target of 32 / (4 frames × 2
       workers) = 4, so eight 4-item frames; an error inside a coalesced
       frame still names the erring task itself *)
    let items = List.init 32 Fun.id in
    let weights _ _ = 1. in
    (match
       S.map_adaptive ~jobs:2 ~weights
         (fun i x -> if i = 2 then failwith "boom" else x)
         items
     with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure msg ->
        Alcotest.(check bool)
          ("frame error names the erring task: " ^ msg)
          true
          (contains ~needle:"task 2" msg));
    (* a worker killed mid-frame is blamed on the frame's first task,
       with the coalesced stowaways counted *)
    match
      S.map_adaptive ~jobs:2 ~weights
        (fun i x ->
          if i = 0 then Unix.kill (Unix.getpid ()) Sys.sigkill;
          x)
        items
    with
    | _ -> Alcotest.fail "expected Failure after a killed worker"
    | exception Failure msg ->
        Alcotest.(check bool)
          ("death blames the frame head: " ^ msg)
          true
          (contains ~needle:"task 0" msg);
        Alcotest.(check bool)
          ("death counts the rest of the frame: " ^ msg)
          true
          (contains ~needle:"(+3 more in its frame)" msg)
  end

(* The calling process's children (zombies included, so an unreaped
   worker counts), from every thread's [/proc/self/task/TID/children]
   on Linux; kernels built without that file fall back to the parent
   pid field of every [/proc/PID/stat]. [None] without [/proc]. *)
let children () =
  let read_line path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try input_line ic with End_of_file -> "")
  in
  let ints line =
    List.filter_map int_of_string_opt (String.split_on_char ' ' line)
  in
  let from_children_files () =
    Array.to_list (Sys.readdir "/proc/self/task")
    |> List.concat_map (fun tid ->
           ints (read_line (Printf.sprintf "/proc/self/task/%s/children" tid)))
  in
  (* "PID (COMM) STATE PPID ...": COMM may hold spaces and parens *)
  let from_stat_files () =
    let self = Unix.getpid () in
    Array.to_list (Sys.readdir "/proc")
    |> List.filter_map (fun entry ->
           match int_of_string_opt entry with
           | None -> None
           | Some pid -> (
               match read_line (Printf.sprintf "/proc/%d/stat" pid) with
               | exception Sys_error _ -> None (* exited meanwhile *)
               | line -> (
                   let rest =
                     String.sub line
                       (String.rindex line ')' + 2)
                       (String.length line - String.rindex line ')' - 2)
                   in
                   match String.split_on_char ' ' rest with
                   | _state :: ppid :: _ when int_of_string_opt ppid = Some self
                     ->
                       Some pid
                   | _ -> None)))
  in
  match from_children_files () with
  | pids -> Some (List.sort_uniq compare pids)
  | exception Sys_error _ -> (
      match from_stat_files () with
      | pids -> Some (List.sort_uniq compare pids)
      | exception Sys_error _ -> None)

(* [scheduler.mli] promises that no worker outlives a call: after a
   successful map, a map whose task raises, and a map whose task
   SIGKILLs its own worker (the pool forks a replacement), the process
   has exactly the children it had before. *)
let test_no_worker_outlives_map () =
  match children () with
  | None -> () (* no /proc on this platform *)
  | Some before ->
      let items = List.init 12 Fun.id in
      let check what ~fails run =
        Alcotest.(check bool)
          (what ^ ": raises iff a task failed")
          fails
          (match run () with
          | (_ : int list) -> false
          | exception Failure _ -> true);
        Alcotest.(check (option (list int)))
          (what ^ ": no worker left behind")
          (Some before) (children ())
      in
      check "successful map" ~fails:false (fun () ->
          S.map ~jobs:3 (fun _ x -> x) items);
      check "raising task" ~fails:true (fun () ->
          S.map ~jobs:3
            (fun i x -> if i = 4 then failwith "boom" else x)
            items);
      check "killed worker" ~fails:true (fun () ->
          S.map ~jobs:3
            (fun i x ->
              if i = 4 then Unix.kill (Unix.getpid ()) Sys.sigkill;
              x)
            items)

(* ---------------- the persistent pool ---------------- *)

(* The daemon's substrate: one Pool outliving many submit/drain
   rounds. Results must match the task function (matched by ticket,
   any completion order), and the SAME workers must serve every round
   — no respawn between batches is the whole point of the daemon. *)
let test_pool_reuse_across_batches () =
  let p = S.Pool.create ~jobs:2 (fun x -> x * x) in
  Fun.protect
    ~finally:(fun () -> S.Pool.shutdown p)
    (fun () ->
      let pids_before = S.Pool.worker_pids p in
      let batch xs =
        let tickets = List.map (fun x -> (S.Pool.submit p x, x)) xs in
        let completions = S.Pool.drain p in
        Alcotest.(check int)
          "one completion per task" (List.length xs)
          (List.length completions);
        Alcotest.(check int) "nothing pending after drain" 0 (S.Pool.pending p);
        List.iter
          (fun (ticket, x) ->
            match
              List.find_opt
                (fun (c : _ S.Pool.completion) -> c.S.Pool.ticket = ticket)
                completions
            with
            | Some { S.Pool.outcome = Ok got; _ } ->
                Alcotest.(check int)
                  (Printf.sprintf "task %d result" x)
                  (x * x) got
            | Some { S.Pool.outcome = Error msg; _ } ->
                Alcotest.fail (Printf.sprintf "task %d failed: %s" x msg)
            | None -> Alcotest.fail (Printf.sprintf "ticket %d lost" ticket))
          tickets
      in
      batch [ 1; 2; 3; 4; 5; 6; 7 ];
      batch [ 10; 20; 30 ];
      batch [];
      Alcotest.(check (list int))
        "same workers across batches" pids_before (S.Pool.worker_pids p);
      Alcotest.(check int) "no deaths" 0 (S.Pool.deaths p))

(* A worker SIGKILLed mid-task: its ticket errors naming the label and
   the signal, a replacement is forked in place, and the pool keeps
   serving — the daemon's failure-isolation contract. *)
let test_pool_worker_death () =
  if not S.fork_available then ()
  else begin
    let p =
      S.Pool.create ~jobs:2 (fun x ->
          if x < 0 then Unix.sleepf 30.;
          x + 1)
    in
    Fun.protect
      ~finally:(fun () -> S.Pool.shutdown p)
      (fun () ->
        let ticket = S.Pool.submit ~label:"napper" p (-1) in
        (match S.Pool.busy_pids p with
        | pid :: _ -> Unix.kill pid Sys.sigkill
        | [] -> Alcotest.fail "submit did not dispatch to a worker");
        let rec await () =
          match
            List.find_opt
              (fun (c : _ S.Pool.completion) -> c.S.Pool.ticket = ticket)
              (S.Pool.poll ~timeout_s:(-1.) p)
          with
          | Some c -> c
          | None -> await ()
        in
        (match (await ()).S.Pool.outcome with
        | Error msg ->
            Alcotest.(check bool)
              ("death names the label: " ^ msg)
              true
              (contains ~needle:"napper" msg);
            Alcotest.(check bool)
              ("death names the signal: " ^ msg)
              true
              (contains ~needle:"SIGKILL" msg)
        | Ok _ -> Alcotest.fail "killed worker's task cannot succeed");
        Alcotest.(check int) "one death counted" 1 (S.Pool.deaths p);
        Alcotest.(check int) "pool is back to strength" 2
          (List.length (S.Pool.worker_pids p));
        (* the respawned pool still serves *)
        let t2 = S.Pool.submit p 41 in
        match S.Pool.drain p with
        | [ { S.Pool.ticket; outcome = Ok 42; _ } ] when ticket = t2 -> ()
        | _ -> Alcotest.fail "pool did not serve after a worker death")
  end

(* shutdown closes the task pipes (workers exit on EOF) and reaps; a
   shut pool refuses new work. *)
let test_pool_shutdown () =
  let p = S.Pool.create ~jobs:2 (fun x -> x) in
  let pids = S.Pool.worker_pids p in
  S.Pool.shutdown p;
  S.Pool.shutdown p (* idempotent *);
  if S.fork_available then
    List.iter
      (fun pid ->
        match Unix.kill pid 0 with
        | () -> Alcotest.fail (Printf.sprintf "worker %d still alive" pid)
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
      pids;
  match S.Pool.submit p 1 with
  | _ -> Alcotest.fail "submit after shutdown must be rejected"
  | exception Invalid_argument _ -> ()

let suites =
  [
    ( "scheduler.order",
      [
        QCheck_alcotest.to_alcotest prop_map_equals_mapi;
        Alcotest.test_case "skewed mix keeps input order" `Quick
          test_order_with_skew;
        Alcotest.test_case "edge cases" `Quick test_edges;
        Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
      ] );
    ( "scheduler.adaptive",
      [
        QCheck_alcotest.to_alcotest prop_plan_frames_partition;
        Alcotest.test_case "LPT, coalesce, split, zero-weight policy" `Quick
          test_plan_frames_policy;
        QCheck_alcotest.to_alcotest prop_adaptive_equals_mapi;
        Alcotest.test_case "coalescing shows in frame stats" `Quick
          test_adaptive_stats_frames;
      ] );
    ( "scheduler.failure",
      [
        Alcotest.test_case "task error names the task" `Quick
          test_task_error_names_task;
        Alcotest.test_case "custom labels in failures" `Quick
          test_custom_labels;
        Alcotest.test_case "killed worker surfaces cleanly" `Quick
          test_killed_worker_names_task;
        Alcotest.test_case "failures through coalesced frames" `Quick
          test_frame_failures;
        Alcotest.test_case "no worker outlives a map call" `Quick
          test_no_worker_outlives_map;
      ] );
    ( "scheduler.pool",
      [
        Alcotest.test_case "one pool serves many batches" `Quick
          test_pool_reuse_across_batches;
        Alcotest.test_case "worker death fails only its ticket" `Quick
          test_pool_worker_death;
        Alcotest.test_case "shutdown reaps and refuses work" `Quick
          test_pool_shutdown;
      ] );
  ]
