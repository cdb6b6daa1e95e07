(** Capture side of the trace store: serialize one workload's
    annotation-event stream into the delta/RLE record format of
    ARCHITECTURE.md §7, entirely in memory.

    A writer is single-use: create it, plug {!sink} into the event
    source (tee it next to the live tracer with {!Hydra.Trace.tee} so
    capture is a bystander, not a stage), then {!finish} to obtain the
    complete record bytes — begin chunk, event chunks, end chunk with
    count/final-timestamp/checksum. Records from independent writers
    are concatenated into a container with {!container}; that
    byte-copy composition is what lets the parallel sweep's forked
    workers each capture their own workloads and ship the record
    strings back for the parent to assemble in registry order.

    Format invariants the writer maintains (and {!Reader} verifies):
    deltas are computed against the shared {!Layout.state} predictors,
    reset at record start; segments (event runs ending at an [eoi])
    of at most {!Layout.seg_cap} bytes are framed as [op_seg] and
    become the [op_repeat] reference; event chunks split only at
    top-level opcode boundaries. Feeding events after {!finish} raises
    [Invalid_argument]. *)

type t

val create : unit -> t

val sink : t -> Hydra.Trace.sink
(** The capture sink: every callback appends one encoded event. The
    per-event cost is a few buffer pushes — cheap enough to leave on
    for a whole sweep, but not allocation-free like the tracer's hot
    path (capture is opt-in, never the default). *)

val finish : name:string -> meta:Obs.Json.t -> t -> string
(** Seal the record and return its bytes. [name] is the workload name
    replay reports under; [meta] is the record metadata object (the
    capture context — see {!Jrpm.Replay} for the schema the pipeline
    stores). Idempotent calls are not supported: the writer is dead
    afterwards. *)

val events : t -> int
(** Events captured so far (logical events, before any RLE). *)

val reference_bytes : t -> int
(** Size of the captured stream in the reference flat encoding
    ([1 + 8·operands] bytes per event) — the numerator of the
    [trace.compression_ratio] metric, fixed by the §7 spec so the
    ratio is comparable across PRs. *)

val container : string list -> string
(** A complete container: the header, each record's bytes in the given
    order, and the container-end chunk. Nothing else: readers find the
    records by walking the chunk frames ({!Index.of_src}). *)

val to_file : path:string -> string list -> unit
(** Write a complete container to [path] atomically
    ({!Atomic_io.write}: temp file + fsync + rename), so a crash
    mid-capture never leaves a truncated container behind. *)
