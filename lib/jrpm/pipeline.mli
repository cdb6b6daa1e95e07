(** The full Jrpm life cycle over one Javelin program (paper Fig. 1):

    1. compile the source, identify potential STLs;
    2. run the optimized-annotation build once, traced; its TEST
       statistics feed the analyzer, and its counts give the plain and
       the base-annotation cycle counts;
    3. estimate per-STL speedups (Equation 1), pick decompositions
       (Equation 2);
    4. recompile the chosen STLs into speculative threads;
    5. run the TLS code on the 4-CPU simulator.

    The {!report} carries everything the paper's tables and figures
    need: plain/annotated/speculative cycle counts, the slowdown split,
    per-STL statistics and estimates, the selection, and the actual
    speculative outcome with an output-equality check. *)

type anno_run = {
  cycles : int;
  slowdown : float;               (** vs. plain sequential *)
  locals_cycles : int;            (** lwl/swl component *)
  read_stats_cycles : int;
  loop_anno_cycles : int;         (** sloop/eloop/eoi component *)
}
(** One annotated build's cycles and their Figure 6 split. Both builds
    are read off the one traced run ({!Hydra.Seq_interp.result}): the
    optimized build is that run, and the base build adds the loads it
    alone annotates ([lwl_extra] × the [lwl] cost) and a statistics read
    after every [eloop] ([eloops] × the read-statistics cost); the
    [sloop]/[eloop]/[eoi] component is the same in both. *)

type report = {
  name : string;
  hw : Hydra.Config.t;            (** hardware point this report describes *)
  plain_cycles : int;
      (** the traced run's cycles less its annotation and stub-jump
          cycles: what the plain build takes *)
  plain_output : Ir.Value.t list;
      (** the traced run's output, which is the plain build's *)
  base : anno_run;                (** base annotations *)
  opt : anno_run;                 (** optimized annotations *)
  stats : (int * Test_core.Stats.t) list;
  estimates : (int * Test_core.Analyzer.estimate) list;
  selection : Test_core.Analyzer.selection;
  tls_cycles : int;
  tls_output : Ir.Value.t list;
  actual_speedup : float;
  outputs_match : bool;
  spec_stats : Hydra.Tls_sim.spec_stats;
  (* program characteristics (paper Table 6) *)
  loop_count : int;
  max_static_depth : int;
  max_dynamic_depth : int;
  table : Compiler.Stl_table.t;
  tac : Ir.Tac.program;
  annotated_program : Hydra.Native.program;   (** optimized-annotation build *)
  tracer : Test_core.Tracer.t;
  method_candidates : Test_core.Method_profile.candidate list;
      (** method-return decompositions not covered by loop STLs
          (paper Sec. 4.1: expected to be nearly empty) *)
}

val run :
  ?hw:Hydra.Config.t ->
  ?tracer_config:Test_core.Tracer.config ->
  ?cpus:int ->
  ?fuel:int ->
  ?sync:bool ->
  ?obs:Obs.Sink.t ->
  ?optimize:bool ->
  ?capture:Trace_store.Writer.t ->
  name:string ->
  string ->
  report
(** [run ~name source] executes the whole cycle against hardware point
    [hw] (default {!Hydra.Config.default}): the tracer geometry is
    derived from it via {!Test_core.Tracer.config_of} (an explicit
    [tracer_config] overrides the derivation), the analyzer evaluates
    Eq. 1/Eq. 2 with its overheads and CPU count, and the TLS simulator
    models its machine. [sync] (default false)
    enables the TLS hardware's learned synchronization (see
    {!Hydra.Tls_sim.run}); [optimize] (default true) runs the microJIT's
    {!Compiler.Opt} scalar passes before analysis and code generation.
    [obs] (default {!Obs.Sink.null}) observes the run: every phase is
    bracketed in [Phase_begin]/[Phase_end] events (phases [frontend],
    [profile-opt], [analyze], [recompile-tls], [tls-run]), the
    [profile-opt] run reports its instruction count once
    ({!Obs.Event.Interp_work}), and the sink is threaded into the
    tracer, the analyzer, and the TLS simulator.

    [profile-opt] is the run's one sequential interpretation: the plain
    baseline ([plain_cycles], [plain_output]) and [base] are derived
    from its counts, not run. A [fuel] limit applies to that run alone,
    so a program that fits it is no longer stopped because its longer
    base build would not.

    [capture] tees the {e optimized} profiling run's raw annotation
    event stream — the stream the tracer itself consumes — into a
    {!Trace_store.Writer} sink. The caller owns the writer and calls
    {!Trace_store.Writer.finish} afterwards ({!Replay.capture_run}
    does both, with the record metadata that makes the trace
    self-describing).
    The TLS run is never captured.
    @raise the usual front-end exceptions on bad source. *)

type profile = {
  tracer : Test_core.Tracer.t;    (** the optimized run's tracer *)
  plain_cycles : int;
      (** plain sequential cycle count, derived as in {!run} *)
  table : Compiler.Stl_table.t;
  annotated_program : Hydra.Native.program;
      (** the traced build, which maps load PCs back to source
          ({!Test_core.Dep_profile.of_stats}) *)
}

val profile_only :
  ?hw:Hydra.Config.t ->
  ?tracer_config:Test_core.Tracer.config ->
  ?fuel:int ->
  ?obs:Obs.Sink.t ->
  ?optimize:bool ->
  ?capture:Trace_store.Writer.t ->
  string ->
  profile
(** The first steps of {!run} and nothing after them: compile and
    trace the optimized-annotation build once, with the same
    [hw]/[tracer_config] rules. [obs] observes the [frontend] and
    [profile-opt] phases, the run's instruction count and the tracer.
    [capture] tees the profiling event stream exactly as in {!run}. *)

val phases : string list
(** The phase names {!run} brackets, in pipeline order — the vocabulary
    of the [phase.*] histograms and [Phase_*] events. *)

val record_report_metrics : Obs.Metrics.t -> report -> unit
(** Export a finished {!report}'s headline numbers as [run.*] gauges
    (plus a [run.reports] counter) into a metrics registry — the
    machine-readable hook future perf PRs diff across commits. *)
