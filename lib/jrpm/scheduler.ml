(* Dynamic work distribution over forked workers: one engine, [Pool].

   [Pool] owns a set of forked workers, each with a task pipe (parent ->
   worker) and a result pipe (worker -> parent), both carrying
   [Framing] frames of [Marshal] payloads. A worker loops — read a task,
   run it, write one framed [(elapsed_s, Ok res | Error msg)] — until
   the parent closes its task pipe. A worker that reports immediately
   receives the next queued task, so skewed task durations never idle
   the pool. The parent multiplexes the result pipes with [Unix.select]
   and detects a dead worker as EOF (or a short or garbled frame) where
   a result was expected.

   The map variants are a [Pool] per call whose task is one *frame* — a
   batch of item indices. Only indices cross the task pipe: workers are
   forks of this executable, so the item array and the task closure are
   already in the child's address space. [map] dispatches singleton
   frames in input order (plain FIFO); [map_adaptive_stats] plans frames
   from per-task weight estimates — heaviest first, tiny tasks coalesced
   — via [plan_frames]. The parent writes results into a slot array
   keyed by item index, so the returned list is in input order no
   matter which worker finished first or how tasks were batched into
   frames — downstream output stays byte-identical at any [jobs].
   [jrpm serve] keeps one [Pool] alive across requests instead. *)

type stats = {
  jobs : int;
  tasks : int;
  frames : int;  (* task-pipe handouts: = tasks unless coalescing *)
  wall_s : float;
  busy_s : float;  (* sum over workers of in-task execution time *)
  max_worker_busy_s : float;
}

let idle_fraction s =
  if s.jobs <= 0 || s.wall_s <= 0. then 0.
  else Float.max 0. (1. -. (s.busy_s /. (float_of_int s.jobs *. s.wall_s)))

let fork_available = not Sys.win32

let default_label i _item = Printf.sprintf "task %d" i

let core_count () = try Domain.recommended_domain_count () with _ -> 1

(* ---------------- adaptive frame planning ---------------- *)

(* Pure and deterministic: the same weights always yield the same
   frames, so the dispatch order never threatens output byte-identity
   (results are slotted by index regardless).

   Policy: with [total] the clamped weight sum, the coalesce target is
   [total / (jobs * frames_per_worker)] — enough frames per worker that
   the dynamic queue can still rebalance. Items are taken heaviest
   first (LPT dispatch order; ties by ascending index). An item at or
   above the target becomes a singleton frame — the split threshold: a
   giant record never shares a frame and is dispatched before anything
   lighter, so it cannot land last and serialize the tail. Lighter
   items accumulate into one frame until it reaches the target, turning
   a long run of tiny records into a single handout. *)
let frames_per_worker = 4

let plan_frames ~jobs weights =
  let n = Array.length weights in
  if n = 0 then []
  else begin
    let jobs = max 1 jobs in
    let w i = Float.max 0. weights.(i) in
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. w i
    done;
    let target = !total /. float_of_int (jobs * frames_per_worker) in
    let order =
      List.stable_sort
        (fun i j -> if w i <> w j then compare (w j) (w i) else compare i j)
        (List.init n Fun.id)
    in
    let frames = ref [] in
    let cur = ref [] in
    let cur_w = ref 0. in
    let seal () =
      if !cur <> [] then begin
        frames := List.rev !cur :: !frames;
        cur := [];
        cur_w := 0.
      end
    in
    List.iter
      (fun i ->
        cur := i :: !cur;
        cur_w := !cur_w +. w i;
        if !cur_w >= target then seal ())
      order;
    seal ();
    List.rev !frames
  end

(* ---------------- the worker pool ---------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [Unix.WSIGNALED] carries OCaml's internal signal numbers (SIGKILL is
   -7), which make for baffling error messages; name the common ones *)
let signal_name sg =
  let names =
    [
      (Sys.sigabrt, "SIGABRT"); (Sys.sigbus, "SIGBUS"); (Sys.sigfpe, "SIGFPE");
      (Sys.sigill, "SIGILL"); (Sys.sigint, "SIGINT"); (Sys.sigkill, "SIGKILL");
      (Sys.sigpipe, "SIGPIPE"); (Sys.sigsegv, "SIGSEGV");
      (Sys.sigterm, "SIGTERM"); (Sys.sigquit, "SIGQUIT");
    ]
  in
  match List.assoc_opt sg names with
  | Some name -> name
  | None -> string_of_int sg

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED sg -> Printf.sprintf "was killed by %s" (signal_name sg)
  | Unix.WSTOPPED sg -> Printf.sprintf "was stopped by %s" (signal_name sg)

(* Tasks (not indices) cross the task pipe as framed [Marshal] payloads
   — a resident server's tasks arrive over a socket long after the
   fork, so there is no shared item array to index into. One task per
   worker in flight; completing a task immediately pulls the next
   queued one. *)
module Pool = struct
  type 'res completion = {
    ticket : int;
    label : string;
    worker : int;
    elapsed_s : float;
    outcome : ('res, string) result;
  }

  type pworker = {
    slot : int;  (* position in the pool; a respawn keeps it *)
    mutable ppid : int;
    mutable ptask_wfd : Unix.file_descr;
    mutable presult_rfd : Unix.file_descr;
    mutable pcurrent : (int * string) option;  (* in-flight ticket *)
  }

  type ('task, 'res) t = {
    run : 'task -> 'res;
    pjobs : int;
    child_cleanup : unit -> unit;
    mutable pws : pworker list;
    pqueue : (int * string * 'task) Queue.t;
    mutable next_ticket : int;
    mutable done_rev : 'res completion list;  (* undelivered, newest first *)
    mutable pdeaths : int;
    mutable pdown : bool;
    inline : bool;  (* no fork on this platform: run tasks at submit *)
  }

  (* Worker loop: read one framed Marshal'd task, run it, write one
     framed Marshal'd [(elapsed_s, Ok res | Error msg)]. EOF on the
     task pipe — the parent closed it, or died and the kernel closed
     it — is the shutdown signal, even if it arrives mid-frame. *)
  let worker_loop run task_rfd result_wfd =
    let rec loop () =
      match Framing.read task_rfd with
      | Eof | Truncated -> Unix._exit 0
      | Complete payload ->
          let task = (Marshal.from_bytes payload 0 : _) in
          let t0 = Unix.gettimeofday () in
          let outcome =
            try Ok (run task) with e -> Error (Printexc.to_string e)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          Framing.write_all result_wfd
            (Framing.frame
               (Marshal.to_string
                  ((elapsed, outcome) : float * (_, string) result)
                  [ Marshal.Closures ]));
          loop ()
    in
    (* any protocol failure means the parent vanished or sent garbage;
       exit silently — the parent's side of the story is authoritative *)
    (try loop () with _ -> ());
    Unix._exit 2

  (* Fork one worker. The child keeps only its own task-read /
     result-write ends; every other worker's parent-side fd — and
     whatever the embedding server registered via [child_cleanup]
     (listening sockets, client connections) — is closed so that the
     parent's death closes the last copy of each task pipe's write end
     and blocked workers see EOF instead of lingering forever.
     [others] excludes a worker being replaced: its parent-side fds
     are already closed and their numbers may have been reused by the
     new pipes. *)
  let spawn ~run ~child_cleanup ~others ~slot =
    let task_rfd, task_wfd = Unix.pipe ~cloexec:false () in
    let result_rfd, result_wfd = Unix.pipe ~cloexec:false () in
    match Unix.fork () with
    | 0 ->
        Unix.close task_wfd;
        Unix.close result_rfd;
        List.iter
          (fun w ->
            close_quietly w.ptask_wfd;
            close_quietly w.presult_rfd)
          others;
        (try child_cleanup () with _ -> ());
        worker_loop run task_rfd result_wfd
    | pid ->
        Unix.close task_rfd;
        Unix.close result_wfd;
        { slot; ppid = pid; ptask_wfd = task_wfd; presult_rfd = result_rfd;
          pcurrent = None }

  let create ?(jobs = 1) ?(child_cleanup = fun () -> ()) run =
    let jobs = max 1 jobs in
    let inline = not fork_available in
    let t =
      {
        run;
        pjobs = jobs;
        child_cleanup;
        pws = [];
        pqueue = Queue.create ();
        next_ticket = 0;
        done_rev = [];
        pdeaths = 0;
        pdown = false;
        inline;
      }
    in
    if not inline then
      for slot = 0 to jobs - 1 do
        t.pws <- t.pws @ [ spawn ~run ~child_cleanup ~others:t.pws ~slot ]
      done;
    t

  let jobs t = t.pjobs
  let worker_pids t = List.map (fun w -> w.ppid) t.pws

  let busy_pids t =
    List.filter_map
      (fun w -> if w.pcurrent <> None then Some w.ppid else None)
      t.pws

  let queued t = Queue.length t.pqueue
  let in_flight t = List.length (List.filter (fun w -> w.pcurrent <> None) t.pws)
  let pending t = queued t + in_flight t
  let deaths t = t.pdeaths
  let result_fds t = List.map (fun w -> w.presult_rfd) t.pws

  let reap_describe pid =
    match Framing.restart_eintr (fun () -> Unix.waitpid [] pid) with
    | _, st -> describe_status st
    | exception Unix.Unix_error _ -> "vanished"

  (* A dead worker: complete its in-flight ticket as an [Error] naming
     the wait status, then fork a replacement in place — the pool keeps
     serving and only the affected task sees the failure. *)
  let handle_death t w =
    t.pdeaths <- t.pdeaths + 1;
    close_quietly w.ptask_wfd;
    close_quietly w.presult_rfd;
    let status = reap_describe w.ppid in
    (match w.pcurrent with
    | Some (ticket, label) ->
        w.pcurrent <- None;
        t.done_rev <-
          {
            ticket;
            label;
            worker = w.slot;
            elapsed_s = 0.;
            outcome =
              Error (Printf.sprintf "worker running %s %s" label status);
          }
          :: t.done_rev
    | None -> ());
    if not t.pdown then begin
      let fresh =
        spawn ~run:t.run ~child_cleanup:t.child_cleanup
          ~others:(List.filter (fun o -> o != w) t.pws)
          ~slot:w.slot
      in
      w.ppid <- fresh.ppid;
      w.ptask_wfd <- fresh.ptask_wfd;
      w.presult_rfd <- fresh.presult_rfd;
      w.pcurrent <- None
    end

  let send_task t w (ticket, label, task) =
    match
      Framing.write_all w.ptask_wfd
        (Framing.frame (Marshal.to_string task [ Marshal.Closures ]))
    with
    | () -> w.pcurrent <- Some (ticket, label)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
        (* the worker died before reading this handout: it never ran,
           so requeue at the front and let the replacement take it *)
        let q = Queue.create () in
        Queue.push (ticket, label, task) q;
        Queue.transfer t.pqueue q;
        Queue.transfer q t.pqueue;
        handle_death t w

  let rec dispatch t =
    if not (Queue.is_empty t.pqueue) then
      match List.find_opt (fun w -> w.pcurrent = None) t.pws with
      | None -> ()
      | Some w ->
          send_task t w (Queue.pop t.pqueue);
          dispatch t

  let submit ?(label = "task") t task =
    if t.pdown then invalid_arg "Jrpm.Scheduler.Pool.submit: pool is shut down";
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    if t.inline then begin
      let t0 = Unix.gettimeofday () in
      let outcome =
        try Ok (t.run task) with e -> Error (Printexc.to_string e)
      in
      t.done_rev <-
        {
          ticket;
          label;
          worker = 0;
          elapsed_s = Unix.gettimeofday () -. t0;
          outcome;
        }
        :: t.done_rev
    end
    else begin
      Queue.push (ticket, label, task) t.pqueue;
      dispatch t
    end;
    ticket

  (* One readable result fd: a framed result, or EOF/garbage meaning
     the worker died. Either way the worker becomes free and the queue
     is re-dispatched. *)
  let receive t w =
    (match Framing.read w.presult_rfd with
    | Eof | Truncated | (exception Framing.Bad_length _) -> handle_death t w
    | Complete payload -> (
        let elapsed_s, outcome =
          (Marshal.from_bytes payload 0 : float * (_, string) result)
        in
        match w.pcurrent with
        | None -> ()  (* spurious frame from a worker we reset *)
        | Some (ticket, label) ->
            w.pcurrent <- None;
            t.done_rev <-
              { ticket; label; worker = w.slot; elapsed_s; outcome }
              :: t.done_rev));
    dispatch t

  let drain_fd t fd =
    match List.find_opt (fun w -> w.presult_rfd = fd) t.pws with
    | Some w -> receive t w
    | None -> ()

  let take_completions t =
    let out = List.rev t.done_rev in
    t.done_rev <- [];
    out

  let poll ?(timeout_s = 0.) t =
    if not t.inline then begin
      dispatch t;
      match List.filter (fun w -> w.pcurrent <> None) t.pws with
      | [] -> ()
      | busy ->
          let fds = List.map (fun w -> w.presult_rfd) busy in
          let ready, _, _ =
            Framing.restart_eintr (fun () -> Unix.select fds [] [] timeout_s)
          in
          List.iter (drain_fd t) ready
    end;
    take_completions t

  let rec wait t =
    match take_completions t with
    | _ :: _ as out -> out
    | [] -> (
        if pending t = 0 then []
        else
          match poll ~timeout_s:(-1.) t with
          | _ :: _ as out -> out
          | [] -> wait t)

  let drain t =
    let acc = ref (take_completions t) in
    while pending t > 0 do
      acc := !acc @ poll ~timeout_s:(-1.) t
    done;
    !acc

  let shutdown t =
    if not t.pdown then begin
      t.pdown <- true;
      List.iter
        (fun w ->
          close_quietly w.ptask_wfd;
          close_quietly w.presult_rfd)
        t.pws;
      List.iter (fun w -> ignore (reap_describe w.ppid : string)) t.pws;
      t.pws <- []
    end
end

(* ---------------- map: a pool per call ---------------- *)

let sequential ~frames f items =
  let t0 = Unix.gettimeofday () in
  let busy = ref 0. in
  let results =
    List.mapi
      (fun i x ->
        let s0 = Unix.gettimeofday () in
        let r = f i x in
        busy := !busy +. (Unix.gettimeofday () -. s0);
        r)
      items
  in
  let wall = Unix.gettimeofday () -. t0 in
  ( results,
    {
      jobs = 1;
      tasks = List.length items;
      frames;
      wall_s = wall;
      busy_s = !busy;
      max_worker_busy_s = !busy;
    } )

(* Run [frames] (dispatch-ordered batches of item indices) on a
   per-call [Pool]. The pool task is one frame; the worker catches each
   item's exception itself, so a pool [Error] always means a dead
   worker. At most [jobs] frames are in flight and the next one is
   submitted only as a frame completes, so every submit lands on the
   worker that just freed up, and the first failure stops further
   handouts (abort-early). In-flight frames then drain, [shutdown]
   reaps every worker — respawned ones included — and the failure is
   raised naming the dead worker's frame and each erring task. *)
let run_frames ~frames ~jobs ~label f items =
  let n = List.length items in
  let frames = Array.of_list frames in
  let nframes = Array.length frames in
  (* never more workers than frames: an extra worker could only idle *)
  let jobs = max 1 (min jobs nframes) in
  if jobs <= 1 || (not fork_available) || n <= 1 then
    sequential ~frames:nframes f items
  else begin
    let arr = Array.of_list items in
    let t0 = Unix.gettimeofday () in
    (* a worker that dies between our send and its read must not kill
       the parent with SIGPIPE; EPIPE is handled at the write site *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    Fun.protect
      ~finally:(fun () ->
        match old_sigpipe with
        | Some h -> Sys.set_signal Sys.sigpipe h
        | None -> ())
      (fun () ->
        let run_frame fr =
          List.map
            (fun idx ->
              ( idx,
                try Ok (f idx arr.(idx))
                with e -> Error (Printexc.to_string e) ))
            fr
        in
        let frame_label fr =
          match fr with
          | [] -> "empty frame"
          | i :: rest ->
              label i arr.(i)
              ^
              (match rest with
              | [] -> ""
              | _ ->
                  Printf.sprintf " (+%d more in its frame)" (List.length rest))
        in
        let pool = Pool.create ~jobs run_frame in
        let results = Array.make n None in
        let busy = Array.make jobs 0. in
        (* newest first *)
        let deaths = ref [] and task_errors = ref [] in
        let next_frame = ref 0 in
        let submit_next () =
          if !deaths = [] && !task_errors = [] && !next_frame < nframes
          then begin
            let fr = frames.(!next_frame) in
            incr next_frame;
            ignore (Pool.submit ~label:(frame_label fr) pool fr : int)
          end
        in
        let complete (c : _ Pool.completion) =
          busy.(c.Pool.worker) <- busy.(c.Pool.worker) +. c.Pool.elapsed_s;
          (match c.Pool.outcome with
          | Error msg -> deaths := msg :: !deaths
          | Ok frame_results ->
              List.iter
                (fun (idx, r) ->
                  match r with
                  | Ok v -> results.(idx) <- Some v
                  | Error msg ->
                      task_errors :=
                        (label idx arr.(idx) ^ ": " ^ msg) :: !task_errors)
                frame_results);
          submit_next ()
        in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            for _ = 1 to jobs do
              submit_next ()
            done;
            while Pool.pending pool > 0 do
              List.iter complete (Pool.wait pool)
            done);
        let wall = Unix.gettimeofday () -. t0 in
        (match List.rev !deaths @ List.rev !task_errors with
        | [] -> ()
        | msgs -> failwith ("Jrpm.Scheduler: " ^ String.concat "; " msgs));
        (* no failure means every frame completed, so every slot is set *)
        ( List.init n (fun i -> Option.get results.(i)),
          {
            jobs;
            tasks = n;
            frames = nframes;
            wall_s = wall;
            busy_s = Array.fold_left ( +. ) 0. busy;
            max_worker_busy_s = Array.fold_left Float.max 0. busy;
          } ))
  end

let map_stats ?(jobs = 1) ?(label = default_label) f items =
  run_frames
    ~frames:(List.init (List.length items) (fun i -> [ i ]))
    ~jobs ~label f items

let map ?jobs ?label f items = fst (map_stats ?jobs ?label f items)

let map_adaptive_stats ?(jobs = 1) ?(label = default_label) ~weights f items =
  let warr = Array.of_list (List.mapi weights items) in
  let frames = plan_frames ~jobs:(max 1 (min jobs (Array.length warr))) warr in
  run_frames ~frames ~jobs ~label f items

let map_adaptive ?jobs ?label ~weights f items =
  fst (map_adaptive_stats ?jobs ?label ~weights f items)
