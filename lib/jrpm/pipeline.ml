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
let phase_profile_opt = "profile-opt"
let phase_analyze = "analyze"
let phase_recompile = "recompile-tls"
let phase_tls = "tls-run"

let phases =
  [ phase_frontend; phase_profile_opt; phase_analyze; phase_recompile; phase_tls ]

let frontend ~obs ~optimize src =
  Obs.Sink.phase obs phase_frontend (fun () ->
      let tac = Ir.Lower.compile src in
      let tac = if optimize then Compiler.Opt.program tac else tac in
      (tac, Compiler.Stl_table.build tac))

(* The plain and the base-annotation builds differ from the traced
   optimized build only in annotation instructions and in the jumps that
   end edge stubs, so its counts give their cycles: the plain build runs
   none of them, and the base build annotates the [lwl_extra] loads too
   and reads statistics after every [eloop]. *)
let derive (r : Hydra.Seq_interp.result) =
  let loop_anno_cycles = r.loop_anno_cycles in
  (* an annotated build's cycles less its annotations' *)
  let untraced =
    r.cycles - r.locals_cycles - r.read_stats_cycles - loop_anno_cycles
  in
  let plain_cycles = untraced - r.stub_cycles in
  let anno_run ~locals_cycles ~read_stats_cycles =
    let cycles =
      untraced + locals_cycles + read_stats_cycles + loop_anno_cycles
    in
    {
      cycles;
      slowdown = Float.of_int cycles /. Float.of_int (max 1 plain_cycles);
      locals_cycles;
      read_stats_cycles;
      loop_anno_cycles;
    }
  in
  let base =
    anno_run
      ~locals_cycles:
        (r.locals_cycles + (r.lwl_extra * Hydra.Cost.cost_anno_local))
      ~read_stats_cycles:(r.eloops * Hydra.Cost.cost_read_stats)
  in
  let opt =
    anno_run ~locals_cycles:r.locals_cycles
      ~read_stats_cycles:r.read_stats_cycles
  in
  (plain_cycles, base, opt)

(* The [profile-opt] phase: the one sequential interpretation of a
   pipeline run, the traced optimized-annotation build, which feeds the
   analyzer. An explicit [tracer_config] wins (tests exercise odd
   geometries); otherwise the tracer models the same machine the
   analysis targets. [wrap] sits between the interpreter and the tracer;
   the capture tee wraps outermost, so the writer records the raw
   interpreter stream, which is what replay must feed back. *)
let profile_opt ?fuel ~hw ?tracer_config ~obs ?capture ?(wrap = Fun.id) table
    tac =
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
      let prog =
        Compiler.Codegen.generate
          ~mode:(Compiler.Codegen.Annotated { optimized = true })
          table tac
      in
      let r = Hydra.Seq_interp.run ?fuel ~tracing:true ~sink prog in
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs
          (Obs.Event.Interp_work { instructions = r.Hydra.Seq_interp.instructions });
      (r, tracer, prog))

type profile = {
  tracer : Test_core.Tracer.t;
  plain_cycles : int;
  table : Compiler.Stl_table.t;
  annotated_program : Hydra.Native.program;
}

let profile_only ?(hw = Hydra.Config.default) ?tracer_config ?fuel
    ?(obs = Obs.Sink.null) ?(optimize = true) ?capture src =
  let tac, table = frontend ~obs ~optimize src in
  let r, tracer, annotated_program =
    profile_opt ?fuel ~hw ?tracer_config ~obs ?capture table tac
  in
  let plain_cycles, _, _ = derive r in
  { tracer; plain_cycles; table; annotated_program }

let run ?(hw = Hydra.Config.default) ?tracer_config ?cpus ?fuel ?sync
    ?(obs = Obs.Sink.null) ?(optimize = true) ?capture ~name src : report =
  (* 1. compile; 2. the one profiling run, which also gives the plain
     baseline and the base-annotation split *)
  let tac, table = frontend ~obs ~optimize src in
  let methods = Test_core.Method_profile.create () in
  let r, tracer, annotated_program =
    profile_opt ?fuel ~hw ?tracer_config ~obs ?capture
      ~wrap:(Test_core.Method_profile.wrap methods)
      table tac
  in
  let plain_cycles, base, opt = derive r in
  let plain_output = r.Hydra.Seq_interp.output in
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
    plain_output;
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
      (try List.for_all2 Ir.Value.equal plain_output tr.Hydra.Tls_sim.output
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
