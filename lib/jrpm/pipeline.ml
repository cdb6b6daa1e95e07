type anno_run = {
  cycles : int;
  slowdown : float;
  locals_cycles : int;
  read_stats_cycles : int;
  loop_anno_cycles : int;
}

type report = {
  name : string;
  hw : Hydra.Config.t;
  plain_cycles : int;
  plain_output : Ir.Value.t list;
  base : anno_run;
  opt : anno_run;
  stats : (int * Test_core.Stats.t) list;
  estimates : (int * Test_core.Analyzer.estimate) list;
  selection : Test_core.Analyzer.selection;
  tls_cycles : int;
  tls_output : Ir.Value.t list;
  actual_speedup : float;
  outputs_match : bool;
  spec_stats : Hydra.Tls_sim.spec_stats;
  loop_count : int;
  max_static_depth : int;
  max_dynamic_depth : int;
  table : Compiler.Stl_table.t;
  tac : Ir.Tac.program;
  annotated_program : Hydra.Native.program;
  tracer : Test_core.Tracer.t;
  method_candidates : Test_core.Method_profile.candidate list;
      (** method-return decompositions NOT covered by loop STLs
          (paper Sec. 4.1 expects this to be nearly empty) *)
}

(* Pipeline phase names, shared with ARCHITECTURE.md's JSON schema. *)
let phase_frontend = "frontend"
let phase_plain = "plain-run"
let phase_profile_base = "profile-base"
let phase_profile_opt = "profile-opt"
let phase_analyze = "analyze"
let phase_recompile = "recompile-tls"
let phase_tls = "tls-run"

let phases =
  [
    phase_frontend;
    phase_plain;
    phase_profile_base;
    phase_profile_opt;
    phase_analyze;
    phase_recompile;
    phase_tls;
  ]

(* An annotated build run with tracing on. The annotation cycles that
   split the slowdown (Figure 6) come from the interpreter, so [sink]
   only matters to a caller that consumes the events. *)
let annotated_run ?fuel ?sink ~optimized ~plain_cycles table tac =
  let prog =
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Annotated { optimized })
      table tac
  in
  let r = Hydra.Seq_interp.run ?fuel ~tracing:true ?sink prog in
  let run =
    {
      cycles = r.Hydra.Seq_interp.cycles;
      slowdown =
        Float.of_int r.Hydra.Seq_interp.cycles /. Float.of_int (max 1 plain_cycles);
      locals_cycles = r.Hydra.Seq_interp.locals_cycles;
      read_stats_cycles = r.Hydra.Seq_interp.read_stats_cycles;
      loop_anno_cycles = r.Hydra.Seq_interp.loop_anno_cycles;
    }
  in
  (run, prog)

(* The [frontend] and [plain-run] phases both entry points start with. *)
let compile_and_run_plain ?fuel ~obs ~optimize src =
  let tac, table =
    Obs.Sink.phase obs phase_frontend (fun () ->
        let tac = Ir.Lower.compile src in
        let tac = if optimize then Compiler.Opt.program tac else tac in
        (tac, Compiler.Stl_table.build tac))
  in
  let pr =
    Obs.Sink.phase obs phase_plain (fun () ->
        let plain =
          Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac
        in
        Hydra.Seq_interp.run ?fuel plain)
  in
  (tac, table, pr)

(* The [profile-opt] phase: the one traced run, which feeds the analyzer.
   An explicit [tracer_config] wins (tests exercise odd geometries);
   otherwise the tracer models the same machine the analysis targets.
   [wrap] sits between the interpreter and the tracer; the capture tee
   wraps outermost, so the writer records the raw interpreter stream,
   which is what replay must feed back. *)
let profile_opt ?fuel ~hw ?tracer_config ~obs ?capture ?(wrap = Fun.id)
    ~plain_cycles table tac =
  Obs.Sink.phase obs phase_profile_opt (fun () ->
      let config =
        Option.value tracer_config ~default:(Test_core.Tracer.config_of hw)
      in
      let tracer = Test_core.Tracer.create ~config ~obs () in
      let sink = wrap (Test_core.Tracer.sink tracer) in
      let sink =
        Option.fold capture ~none:sink ~some:(fun w ->
            Hydra.Trace.tee sink (Trace_store.Writer.sink w))
      in
      let run, prog =
        annotated_run ?fuel ~sink ~optimized:true ~plain_cycles table tac
      in
      (run, tracer, prog))

type profile = {
  tracer : Test_core.Tracer.t;
  plain_cycles : int;
  table : Compiler.Stl_table.t;
  annotated_program : Hydra.Native.program;
}

let profile_only ?(hw = Hydra.Config.default) ?tracer_config ?fuel
    ?(obs = Obs.Sink.null) ?(optimize = true) ?capture src =
  let tac, table, pr = compile_and_run_plain ?fuel ~obs ~optimize src in
  let plain_cycles = pr.Hydra.Seq_interp.cycles in
  let _, tracer, annotated_program =
    profile_opt ?fuel ~hw ?tracer_config ~obs ?capture ~plain_cycles table tac
  in
  { tracer; plain_cycles; table; annotated_program }

let run ?(hw = Hydra.Config.default) ?tracer_config ?cpus ?fuel ?sync
    ?(obs = Obs.Sink.null) ?(optimize = true) ?capture ~name src : report =
  (* 1. plain sequential baseline *)
  let tac, table, pr = compile_and_run_plain ?fuel ~obs ~optimize src in
  let plain_cycles = pr.Hydra.Seq_interp.cycles in
  (* 2. profiling runs. The base run is untraced: only its cycle split
     is read, and the interpreter counts that itself. *)
  let base, _ =
    Obs.Sink.phase obs phase_profile_base (fun () ->
        annotated_run ?fuel ~optimized:false ~plain_cycles table tac)
  in
  let methods = Test_core.Method_profile.create () in
  let opt, tracer, annotated_program =
    profile_opt ?fuel ~hw ?tracer_config ~obs ?capture
      ~wrap:(Test_core.Method_profile.wrap methods)
      ~plain_cycles table tac
  in
  (* 3. analyze & select *)
  let stats, estimates, selection =
    Obs.Sink.phase obs phase_analyze (fun () ->
        let stats = Test_core.Tracer.stats tracer in
        let estimates =
          List.map
            (fun (stl, s) ->
              (stl, Test_core.Analyzer.estimate ~config:hw ?cpus s))
            stats
        in
        (* All the analyzer's cycle counts come from the annotated run, so
           the whole-program denominator must too (annotation overhead
           cancels). *)
        let selection =
          Test_core.Analyzer.select ~config:hw ?cpus ~obs ~stats
            ~child_cycles:(Test_core.Tracer.child_cycles tracer)
            ~program_cycles:opt.cycles ()
        in
        (stats, estimates, selection))
  in
  (* 4. recompile chosen STLs; 5. speculative run *)
  let tls_prog =
    Obs.Sink.phase obs phase_recompile (fun () ->
        let selected =
          List.map
            (fun (c : Test_core.Analyzer.choice) -> c.chosen_stl)
            selection.chosen
        in
        Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected })
          table tac)
  in
  let tr =
    Obs.Sink.phase obs phase_tls (fun () ->
        Hydra.Tls_sim.run ~config:hw ?fuel ?sync ~obs tls_prog)
  in
  {
    name;
    hw;
    plain_cycles;
    plain_output = pr.Hydra.Seq_interp.output;
    base;
    opt;
    stats;
    estimates;
    selection;
    tls_cycles = tr.Hydra.Tls_sim.cycles;
    tls_output = tr.Hydra.Tls_sim.output;
    actual_speedup =
      Float.of_int plain_cycles /. Float.of_int (max 1 tr.Hydra.Tls_sim.cycles);
    outputs_match =
      (try List.for_all2 Ir.Value.equal pr.Hydra.Seq_interp.output tr.Hydra.Tls_sim.output
       with Invalid_argument _ -> false);
    spec_stats = tr.Hydra.Tls_sim.stats;
    loop_count = Compiler.Stl_table.loop_count table;
    max_static_depth = Compiler.Stl_table.max_static_depth table;
    max_dynamic_depth = Test_core.Tracer.max_dynamic_depth tracer;
    table;
    tac;
    annotated_program;
    tracer;
    method_candidates =
      Test_core.Method_profile.candidates methods ~program:annotated_program
        ~program_cycles:opt.cycles ();
  }

let record_report_metrics (reg : Obs.Metrics.t) (r : report) =
  let gauge name v = Obs.Metrics.set_gauge reg name v in
  gauge "run.plain_cycles" (float_of_int r.plain_cycles);
  gauge "run.base_cycles" (float_of_int r.base.cycles);
  gauge "run.opt_cycles" (float_of_int r.opt.cycles);
  gauge "run.tls_cycles" (float_of_int r.tls_cycles);
  gauge "run.actual_speedup" r.actual_speedup;
  gauge "run.predicted_speedup"
    r.selection.Test_core.Analyzer.predicted_speedup;
  gauge "run.selected_stls"
    (float_of_int (List.length r.selection.Test_core.Analyzer.chosen));
  gauge "run.loop_count" (float_of_int r.loop_count);
  gauge "run.outputs_match" (if r.outputs_match then 1. else 0.);
  (* tracer cache health: how much history the finite timestamp buffers
     lost on this run (high values explain missing distant arcs) *)
  gauge "tracer.heap_fifo_evictions"
    (float_of_int (Test_core.Tracer.heap_fifo_evictions r.tracer));
  gauge "tracer.local_ts_evictions"
    (float_of_int (Test_core.Tracer.local_ts_evictions r.tracer));
  gauge "tracer.ld_dedup_conflicts"
    (float_of_int (Test_core.Tracer.ld_dedup_conflicts r.tracer));
  gauge "tracer.st_dedup_conflicts"
    (float_of_int (Test_core.Tracer.st_dedup_conflicts r.tracer));
  Obs.Metrics.incr reg "run.reports" ~by:1
