(** The Jrpm profile analyzer: converts TEST statistics into the
    Equation-1 speedup estimate per STL and applies the Equation-2
    comparison over the (dynamically observed) loop-nest forest to pick
    the decompositions that are recompiled into speculative threads. *)

type estimate = {
  est_stl : int;
  seq_cycles : int;             (** sequential cycles inside this STL *)
  avg_thread_size : float;
  avg_iters_per_entry : float;
  crit_prev_freq : float;
  crit_prev_len : float;        (** average critical arc length, t-1 bin *)
  crit_earlier_freq : float;
  crit_earlier_len : float;
  overflow_freq : float;
  base_speedup : float;         (** arc-limited speedup, before overheads *)
  spec_time : float;            (** estimated cycles if run speculatively *)
  est_speedup : float;          (** seq_cycles / spec_time, clamped to [0.x, p] *)
}

val estimate : ?config:Hydra.Config.t -> ?cpus:int -> Stats.t -> estimate
(** Equation 1, evaluated against [config] (default
    {!Hydra.Config.default}): the Table 2 overheads come from the
    config, and the processor count defaults to [config.num_cpus];
    [?cpus] overrides it without changing the overheads.
    See DESIGN.md for the reconstruction of the formula: an
    arc of average length [L] at thread distance [d] bounds the thread
    initiation interval below by [T - L/d]; maximal speedup [p] needs
    [L >= (p-1)/p * T] for the t-1 bin — the paper's "¾ rule".
    Threads predicted to overflow the speculative buffers serialize. *)

type choice = {
  chosen_stl : int;
  coverage : float;              (** fraction of whole-program cycles *)
  speedup : float;               (** this STL's estimated speedup *)
  stl_cycles : int;
}

type selection = {
  chosen : choice list;          (** sorted by coverage, descending *)
  program_cycles : int;
  predicted_cycles : float;      (** whole-program time with chosen STLs *)
  predicted_speedup : float;
  serial_cycles : int;           (** cycles covered by no potential STL *)
}

val select :
  ?config:Hydra.Config.t ->
  ?cpus:int ->
  ?obs:Obs.Sink.t ->
  stats:(int * Stats.t) list ->
  child_cycles:((int * int) * int) list ->
  program_cycles:int ->
  unit ->
  selection
(** Equation 2 as a dynamic program over the observed nesting forest:
    [best l = min (spec_time l, serial-inside-l + Σ best children)].
    An STL observed under several dynamic parents is attributed to its
    majority parent (documented approximation, DESIGN.md). [obs]
    (default {!Obs.Sink.null}) receives one {!Obs.Event.Decision} per
    estimated STL carrying the Eq. 1 / Eq. 2 inputs that justified the
    speculate-or-nest verdict. *)

