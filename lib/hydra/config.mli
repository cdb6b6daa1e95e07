(** First-class hardware model of the Hydra CMP + TEST tracer.

    Bundles every geometry and overhead constant the paper fixes
    (Tables 1/2, Sec. 5.3, the 4-CPU machine) into a value so the
    analysis — Eq. 1 speedup, Eq. 2 speculate-vs-nest, the TLS
    simulator, and the transistor-cost estimate — can be evaluated at
    machine points other than the paper's. {!default} is the paper's
    machine; [jrpm explore] sweeps grids of variants over replayed
    traces. *)

type t = {
  (* TEST tracer geometry (paper Sec. 5.3) *)
  comparator_banks : int;  (** concurrent speculative-region nesting depth *)
  heap_ts_fifo_lines : int;  (** per-bank heap timestamp FIFO capacity *)
  cacheline_ts_lines : int;  (** per-bank cache-line timestamp slots *)
  local_ts_slots : int;  (** per-bank local-variable timestamp slots *)
  (* TLS buffer limits (Table 1) *)
  load_buffer_lines : int;  (** speculative load buffer, in cache lines *)
  store_buffer_lines : int;  (** speculative store buffer, in cache lines *)
  line_words : int;  (** words per cache line *)
  (* TLS overheads in cycles (Table 2) *)
  loop_startup : int;
  loop_shutdown : int;
  loop_eoi : int;
  violation_restart : int;
  store_load_communication : int;
  (* Hydra machine *)
  num_cpus : int;  (** processors available to a speculative region *)
}

val default : t
(** The paper's machine (Tables 1/2, Sec. 5.3, four CPUs) — the one
    definition of its geometry and TLS overheads. *)

val equal : t -> t -> bool

val size_max : int
(** [2^20]: the largest [heap_ts_fifo_lines], [cacheline_ts_lines],
    [local_ts_slots], [load_buffer_lines] and [store_buffer_lines]. *)

val width_max : int
(** [4096]: the largest [comparator_banks], [line_words] and
    [num_cpus]. *)

val overhead_max : int
(** [1_000_000] cycles: the largest value of each Table 2 overhead. *)

val heap_history_words_max : int
(** [2^24]: the largest [heap_ts_fifo_lines * line_words], the words of
    write history the tracer allocates up front (128 MB). *)

val validate : t -> t
(** Returns the config unchanged, or @raise Invalid_argument naming the
    first field that is out of range: sizes from 1 and overheads from 0,
    each up to its maximum above, and the heap history within
    {!heap_history_words_max}. The maxima are far above the paper's
    machine ({!default}) and every grid the tests and docs use; they
    keep each table a config sizes allocatable. *)

val to_json : t -> Obs.Json.t
(** Flat object of integer fields, one per record field. *)

val of_json : Obs.Json.t -> t
(** Inverse of {!to_json}; validates.
    @raise Failure on a missing or mistyped field. *)

val fingerprint : t -> string
(** Stable 16-hex-digit digest (FNV-1a 64 over the canonical field
    sequence). Keys regression baselines and explore matrix columns;
    stable across processes and sessions — equal configs always get
    equal fingerprints, and any field change alters it. *)

val default_fingerprint : string
(** [fingerprint default], precomputed. *)

val fields : (string * (t -> int)) list
(** Field table in canonical order: (JSON name, accessor). The codec,
    {!fingerprint}, and [jrpm explore]'s grid axes all derive from it. *)

val short_names : (string * string) list
(** JSON name → short CLI/label name (e.g. ["comparator_banks"] →
    ["banks"]); these are the axis names [jrpm explore --grid] accepts. *)

val label : t -> string
(** Human-readable summary of the fields that differ from {!default},
    e.g. ["cpus=8 banks=4"]; the default config renders as ["default"]. *)

val pp : Format.formatter -> t -> unit
