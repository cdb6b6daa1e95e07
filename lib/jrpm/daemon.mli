(** Profiling-as-a-service: [jrpm serve]'s resident server.

    One long-lived {!Scheduler.Pool} of forked workers serves
    concurrent requests over a Unix-domain socket (or stdio):
    [profile] a registered workload, [sweep] a list of them, [replay]
    records from a [.jtrc] container, [explore] a config grid. Wire
    protocol — [len: 8-byte LE][JSON payload] frames, request/response
    schemas, failure semantics — is specified in ARCHITECTURE.md §9.

    {b One request path.} An {!op} is the one description of
    profile/sweep/replay/explore work, and one plan is its fan-out: the
    op is checked once (registry lookup, record filter, grid parse) and
    turned into labelled pool tasks plus the function that assembles
    their results into the result document. {!execute} maps those tasks
    over a per-call pool in this process — what the one-shot [jrpm
    trace replay] and [jrpm explore] commands do — and the server
    submits the same tasks to its resident pool; both answer with the
    same assembly. [jrpm] renders each result kind with one renderer
    whichever way the document arrived, so one-shot and [jrpm client]
    output are byte-identical by construction; CI's [cmp] gates now
    test the transport.

    {b One workload task.} A [profile] or [sweep] request and {!sweep}
    ([jrpm sweep], [jrpm trace record], the bench tables) run a
    workload as the same task, through {!execute}'s runner.

    {b Failure isolation.} A worker SIGKILLed mid-request errors only
    the request whose task it was running; the pool forks a
    replacement and every other queued/in-flight request proceeds.
    Worker-side and daemon-side state survive; the client sees an
    [ok: false] response naming the wait status.

    {b Lifecycle.} Containers are held per process in an LRU
    ({!Mapping_cache}) keyed by path, revalidated by (size, mtime) stat
    so an atomically re-captured container is read again. The server
    parent keeps only each container's index; each worker keeps its
    mappings.
    Teardown (normal exit, SIGTERM/SIGINT, or an escaping exception)
    closes the pool's task pipes, reaps every worker, and removes the
    socket file; if the daemon is SIGKILLed, the kernel's closing of
    the pipe ends makes blocked workers exit on EOF rather than
    linger. *)

(** LRU of containers: path -> (mapped bytes, parsed index),
    revalidated against the file's (size, mtime) on every lookup.
    Exposed for eviction-correctness tests. *)
module Mapping_cache : sig
  type t

  val create : ?capacity:int -> ?index_only:bool -> unit -> t
  (** Default capacity 8 (containers retained); min 1. An [index_only]
      cache (default [false]) keeps each container's index and unmaps
      the file as soon as it is indexed — the server parent, which
      never decodes a record. *)

  val get : t -> string -> Trace_store.Bytesrc.t
  (** @raise Invalid_argument on an [index_only] cache. *)

  val get_entries : t -> string -> Trace_store.Index.entry list

  val cached : t -> string list
  (** Cached paths, most recently used first. *)

  val stats : t -> int * int * int
  (** [(hits, misses, evictions)]. A stale remap counts as a miss, not
      an eviction. *)
end

val max_request : int
(** Largest request payload the server accepts, [2^16] bytes, far
    below {!Framing.max_frame}: a longer length header closes the
    connection without waiting for its payload. *)

(** {2 Protocol model and codec} — exercised directly by the qcheck
    round-trip tests; the server and {!Client} speak through these. *)

type request =
  | Ping
  | Profile of string  (** registered workload name *)
  | Replay of { path : string; record : string option }
      (** all records of the container, or just [record] *)
  | Explore of { path : string; grid : string list }
      (** [--grid] specs as in [jrpm explore] *)
  | Stats
  | Sleep of float  (** diagnostic: occupy a worker for N seconds *)
  | Shutdown

(** Every op the wire carries: a {!request}, or [Sweep], the profiles
    of many registered workloads. [Sweep] is no {!request} constructor
    because [perfbench/core/checks.ml] matches [request] exhaustively;
    ROADMAP item 2 folds the two. *)
type op = Request of request | Sweep of string list

type envelope = { id : Obs.Json.t; req : request }
(** [id] is echoed verbatim in the response — clients pipelining
    requests match responses by it. *)

val op_to_json : id:Obs.Json.t -> op -> Obs.Json.t

val op_of_json : Obs.Json.t -> (Obs.Json.t * op, string) result
(** The id (default [Null]) and the op; [Error] names the missing or
    mistyped field. *)

val request_to_json : envelope -> Obs.Json.t
(** [op_to_json ~id (Request req)]. *)

type response = {
  rsp_id : Obs.Json.t;
  rsp : (Obs.Json.t, string) result;  (** [result] or [error] *)
  elapsed_s : float;
  queue_depth : int;  (** pool backlog when the request was accepted *)
  tasks : int;  (** pool tasks the request fanned into *)
}

val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> response

(** {2 In-process execution} *)

(** One workload's run: its summary, and what {!sweep} asked for. *)
type outcome = {
  workload : Workloads.Workload.t;
  summary : Report_summary.t;
  report : Pipeline.report option;  (** with [report] *)
  recorder : Obs.Recorder.t option;  (** with [observe] *)
  trace : string option;  (** with [capture]: the trace-store record *)
}

val execute : ?obs:Obs.Sink.t -> jobs:int -> op -> Obs.Json.t
(** Run a [Profile], [Sweep], [Replay], [Explore] or [Sleep] op in this
    process and return the [result] document the server sends for it:
    [profile] → [{"summary": …}], [sweep] → [{"summaries": […]}] in
    list order, [replay] → path, [matches], per-record rows and
    summaries, [explore] → {!Explore.to_json}, [sleep] →
    [{"slept": s}]. The op's tasks — one per workload for sweep, one
    per record for replay and explore — run under
    {!Scheduler.map_adaptive} over [jobs] workers, weighted by record
    events (times the {!Explore.record_weight} fusion groups for
    explore; a workload weighs [0.]); the container is mapped before
    the workers fork, and they inherit it. After the tasks, [obs]
    (default {!Obs.Sink.null}) receives each replayed record's
    {!Replay.work_event}, in record order, whichever worker replayed
    it.
    @raise Failure on an unknown workload, a missing record, a
    malformed grid spec, or a failed task;
    @raise Invalid_argument on an out-of-range grid point, and for
    [Ping] / [Stats] / [Shutdown];
    @raise Trace_store.Reader.Corrupt on an unreadable container, or
    on a corrupt record whichever worker decoded it (the first in
    record order, with the same message at every [jobs]). The server
    answers the same inputs with the exception's message
    ([corrupt container: ] prefixed for [Corrupt]). *)

val sweep :
  jobs:int ->
  ?capture:bool ->
  ?observe:bool ->
  ?report:bool ->
  Workloads.Workload.t list ->
  outcome list
(** [sweep ~jobs workloads] runs each workload's whole pipeline as one
    task of {!execute}'s runner over [jobs] workers; outcomes come back
    in list order, so any [jobs] gives the same list (recorder
    wall-clock spans excepted). [capture] records each optimized event
    stream ({!Replay.capture_run}), [observe] attaches a fresh recorder
    with {!Pipeline.record_report_metrics} gauges, [report] keeps the
    full report, which only the paper tables read (all default
    [false]). [jobs <= 1], or a single workload, runs in this process
    and lets a workload's own exception through.
    @raise Failure when a worker fails, naming the workload it ran. *)

val container : outcome list -> string option
(** The captured records, in list order, as one container; [None] when
    nothing was captured. *)

val merged_recorder : outcome list -> Obs.Recorder.t option
(** The recorders merged, in list order, into a fresh one; [None] when
    the runs were unobserved. *)

(** {2 Server} *)

type transport =
  | Socket of string  (** Unix-domain socket path (unlinked if stale) *)
  | Stdio  (** frames on stdin/stdout; exits at stdin EOF *)

val serve : ?jobs:int -> transport -> unit
(** Run the server until a [shutdown] request (or stdin EOF under
    {!Stdio}). [jobs] (default 1) sizes the worker pool. Blocks;
    callers fork first if they need it in the background. *)

(** {2 Blocking client} — [jrpm client], the benches, and the tests
    speak to a server through this. *)
module Client : sig
  type t

  val connect : string -> t
  (** @raise Failure when the socket cannot be connected. *)

  val close : t -> unit

  val send : ?id:Obs.Json.t -> t -> op -> Obs.Json.t
  (** Frame and send one op, returning its id (auto-assigned
      sequential [Int] when not supplied). *)

  val recv : t -> response
  (** Next response on the wire, whatever its id.
      @raise Failure at EOF. *)

  val rpc : ?id:Obs.Json.t -> t -> request -> response
  (** [send (Request req)] then [recv] until the matching id arrives
      (responses to other in-flight ids are discarded — don't mix [rpc]
      with pipelined [send]s on one connection). *)
end
