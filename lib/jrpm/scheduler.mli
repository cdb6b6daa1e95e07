(** Work-stealing task scheduler over forked worker processes: one
    engine, {!Pool}, used two ways.

    {!Pool} forks [jobs] workers, each owning two pipes: a task pipe
    (parent -> worker) and a result pipe (worker -> parent), both
    carrying {!Framing} frames of [Marshal] payloads. When a worker
    reports, the parent immediately hands it the next queued task
    (dynamic policy), so a skewed task mix keeps every worker busy
    until the queue drains; closing the task pipe is the shutdown
    signal.

    The map variants create a pool per call, capped at the frame count,
    and shut it down before returning; [jrpm serve] keeps one pool alive
    across requests. A map's pool task is one {e frame} — a batch of
    item indices. Workers are forks of the calling process, so the item
    list and the task closure never cross a pipe — only indices and
    results do. [map_adaptive_stats] plans frames from
    caller-supplied per-task weights via {!plan_frames}: heaviest tasks
    first (LPT), tiny tasks coalesced into shared frames, so neither a
    giant task at the tail nor per-task handout overhead on thousands
    of tiny tasks dominates the wall-clock.

    {b Ordering guarantee.} Results are slotted by item index and
    returned in input order: for a deterministic [f], every map variant
    at every [jobs] is observably [List.mapi f xs].

    {b Failure semantics.} A worker that exits or is killed mid-frame
    is detected as EOF (or a short frame) on its result pipe; the
    parent then stops handing out work, drains in-flight frames, reaps
    every child, and raises [Failure] naming the first task of the
    frame the dead worker was running (plus how many more rode in that
    frame) and its wait status. A task function that raises is reported
    the same way (label + exception text) without killing the pool
    mid-drain. No worker processes outlive a call. *)

type stats = {
  jobs : int;  (** workers actually used (capped at the frame count) *)
  tasks : int;
  frames : int;  (** task-pipe handouts; [= tasks] unless coalescing *)
  wall_s : float;  (** wall-clock for the whole map *)
  busy_s : float;  (** total in-task time summed over workers *)
  max_worker_busy_s : float;  (** busiest single worker *)
}

(** Fraction of the pool's wall-clock capacity spent waiting,
    [1 - busy / (jobs * wall)], clamped to [\[0, 1\]]. High values mean
    the task mix was skewed relative to the schedule. *)
val idle_fraction : stats -> float

(** [false] only on platforms without [Unix.fork]; all maps then run
    in-process. *)
val fork_available : bool

(** Default worker count: {!core_count}; the [JRPM_JOBS] environment
    variable overrides it. An invalid override (not a positive integer)
    is diagnosed on stderr and treated as unset. *)
val default_jobs : unit -> int

(** Available hardware parallelism ([Domain.recommended_domain_count],
    [1] when that is unavailable) — the default worker count for CLI
    [--jobs 0] style requests and the gate benchmarks use before
    asserting parallel speedups. *)
val core_count : unit -> int

(** [plan_frames ~jobs weights] is the adaptive granularity plan
    [map_adaptive_stats] executes: a partition of
    [0 .. Array.length weights - 1] into dispatch-ordered frames.
    Negative weights are clamped to [0]. With [total] the weight sum,
    the coalesce target is [total / (4 * jobs)] — four frames per
    worker, enough for the dynamic queue to rebalance a bad estimate. Items are planned
    heaviest first (ties by ascending index, so the plan is
    deterministic): an item at or above the target becomes a singleton
    frame — the split threshold keeping one giant task from sharing (or
    trailing) a frame — and lighter items accumulate into one frame
    until it reaches the target. All-zero weights degrade to singleton
    frames in input order, i.e. FIFO. Every index appears in exactly
    one frame. *)
val plan_frames : jobs:int -> float array -> int list list

(** [map_stats ?jobs ?label f items] is [map_adaptive_stats] with zero
    weights: singleton frames handed out in input order (plain FIFO
    work stealing), plus pool-utilization measurements. Kept for the
    benchmarks ([bench/main.ml]'s scheduler bench, [perfbench/main.ml]);
    the benchmark change of ROADMAP item 2 deletes it. *)
val map_stats :
  ?jobs:int -> ?label:(int -> 'a -> string) -> (int -> 'a -> 'b) ->
  'a list -> 'b list * stats

(** [map_adaptive_stats ?jobs ?label ~weights f items] maps [f] over
    [items] on a forked worker pool with dynamic (work-stealing) handout
    of the frames {!plan_frames} plans over [List.mapi weights items]:
    longest-processing-time-first dispatch, tiny tasks coalesced, one
    frame handout per batch; all-zero weights give FIFO singletons.
    Weights only shape the schedule — results are slotted by index and
    returned in input order, so output is [List.mapi f items] for a
    deterministic [f] whatever the weights. [jobs <= 1], a
    singleton/empty list, or a platform without fork all degrade to an
    in-process [List.mapi f]. [label] names a task for failure reports
    (default ["task %d"]).
    @raise Failure if a worker dies or any task raises. *)
val map_adaptive_stats :
  ?jobs:int -> ?label:(int -> 'a -> string) ->
  weights:(int -> 'a -> float) -> (int -> 'a -> 'b) ->
  'a list -> 'b list * stats

(** [map_adaptive_stats] without the stats. *)
val map_adaptive :
  ?jobs:int -> ?label:(int -> 'a -> string) ->
  weights:(int -> 'a -> float) -> (int -> 'a -> 'b) ->
  'a list -> 'b list

(** A forked worker pool: the engine under the map variants (one pool
    per call) and [jrpm serve] (one pool for the daemon's lifetime).
    Tasks stream in over time: each task crosses the task pipe as one
    framed [Marshal] payload, each result comes back as a framed
    [(elapsed_s, Ok res | Error msg)].

    {b Failure semantics.} A worker that dies mid-task is detected as
    EOF (or a short frame) on its result pipe; its in-flight ticket
    completes as [Error] naming the wait status, a replacement worker
    is forked in place, and every other queued or in-flight task is
    unaffected — the pool never raises on a worker death. A task that
    was handed to a worker that died {e before reading it} is requeued
    (it never ran). A task function that raises completes its ticket
    as [Error] with the exception text.

    {b Lifecycle.} Workers exit on task-pipe EOF, and each fork closes
    every other worker's parent-side pipe fds plus whatever the
    embedder's [child_cleanup] closes (sockets), so the parent's death
    — even by SIGKILL — closes the last write end of every task pipe
    and blocked workers exit rather than linger. [shutdown] closes the
    pipes and reaps every worker explicitly. On platforms without
    [fork], tasks run inline at [submit] and complete immediately. *)
module Pool : sig
  type ('task, 'res) t

  type 'res completion = {
    ticket : int;  (** as returned by {!submit} *)
    label : string;
    worker : int;
        (** slot of the worker that ran it, in [\[0, jobs)]; a
            respawned worker keeps its predecessor's slot *)
    elapsed_s : float;  (** in-task time ([0.] for a worker death) *)
    outcome : ('res, string) result;
  }

  val create :
    ?jobs:int -> ?child_cleanup:(unit -> unit) -> ('task -> 'res) ->
    ('task, 'res) t
  (** Fork [jobs] (default 1, min 1) workers running [run] per task.
      [child_cleanup] runs in every forked child (including respawns)
      before its task loop — close inherited server fds there. *)

  val jobs : _ t -> int
  val worker_pids : _ t -> int list
  val busy_pids : _ t -> int list
  (** Pids currently running a task — a test that wants to SIGKILL a
      worker mid-request picks from these. *)

  val submit : ?label:string -> ('task, 'res) t -> 'task -> int
  (** Queue a task and return its ticket. Dispatches immediately if a
      worker is idle. [label] names the task in [Error] outcomes.
      @raise Invalid_argument after {!shutdown}. *)

  val queued : _ t -> int
  (** Tasks waiting for a free worker. *)

  val in_flight : _ t -> int
  (** Tasks currently on a worker. *)

  val pending : _ t -> int
  (** [queued + in_flight]. *)

  val deaths : _ t -> int
  (** Workers replaced since [create]. *)

  val result_fds : _ t -> Unix.file_descr list
  (** Current result-pipe read ends, for embedding in an external
      [Unix.select] loop. Invalidated by a worker death (respawning
      replaces the dead worker's pipes) — re-query after every
      {!poll}/{!drain_fd}. *)

  val drain_fd : ('task, 'res) t -> Unix.file_descr -> unit
  (** Consume one readable result fd (completions are buffered; collect
      them with {!poll} — a zero-timeout call never blocks). Unknown
      fds are ignored. *)

  val poll : ?timeout_s:float -> ('task, 'res) t -> 'res completion list
  (** Buffered completions, after waiting up to [timeout_s] (default
      [0.] — non-blocking; negative waits indefinitely) for busy
      workers to report. Order: completion order, not ticket order. *)

  val wait : ('task, 'res) t -> 'res completion list
  (** Block until at least one completion is available (immediately
      [[]] when nothing is pending or buffered). *)

  val drain : ('task, 'res) t -> 'res completion list
  (** Block until every queued and in-flight task has completed. *)

  val shutdown : _ t -> unit
  (** Close every task pipe (workers exit on EOF) and reap the pool.
      Idempotent. In-flight results are discarded. *)
end
