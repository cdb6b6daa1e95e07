(* Differential fuzzing across the whole stack: for random well-typed
   programs, the plain interpreter, the optimizer, the annotated/traced
   build, the TLS simulator (restart-only and sync modes) must all agree
   — and the parse/print round trip must be the identity. *)

let engines_agree seed =
  let src = Fuzz_gen.gen_program seed in
  let tac = Ir.Lower.compile src in
  let otac = Compiler.Opt.program tac in
  let table = Compiler.Stl_table.build tac in
  let otable = Compiler.Stl_table.build otac in
  let out_of prog run = List.map Ir.Value.to_string (run prog) in
  let plain =
    out_of
      (Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac)
      (fun p -> (Hydra.Seq_interp.run p).Hydra.Seq_interp.output)
  in
  let optimized =
    out_of
      (Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain otable otac)
      (fun p -> (Hydra.Seq_interp.run p).Hydra.Seq_interp.output)
  in
  let annotated =
    out_of
      (Compiler.Codegen.generate
         ~mode:(Compiler.Codegen.Annotated { optimized = true })
         otable otac)
      (fun p ->
        let tracer = Test_core.Tracer.create () in
        (Hydra.Seq_interp.run ~tracing:true ~sink:(Test_core.Tracer.sink tracer) p)
          .Hydra.Seq_interp.output)
  in
  let selected =
    Array.to_list otable.Compiler.Stl_table.stls
    |> List.filter_map (fun (s : Compiler.Stl_table.stl) ->
           if s.Compiler.Stl_table.traced && s.Compiler.Stl_table.static_depth = 1
           then Some s.Compiler.Stl_table.id
           else None)
  in
  let tls_prog =
    Compiler.Codegen.generate ~mode:(Compiler.Codegen.Tls { selected }) otable otac
  in
  let tls =
    out_of tls_prog (fun p -> (Hydra.Tls_sim.run p).Hydra.Tls_sim.output)
  in
  let tls_sync =
    out_of tls_prog (fun p ->
        (Hydra.Tls_sim.run ~sync:true p).Hydra.Tls_sim.output)
  in
  plain = optimized && plain = annotated && plain = tls && plain = tls_sync

let prop_engines =
  QCheck.Test.make ~name:"all engines agree on random programs" ~count:40
    QCheck.(int_range 1 1_000_000)
    engines_agree

(* A fused tracer over the limit pairs {1, 2, 4, 64}, re-run for the
   pairs that depart at a split exactly as replay re-decodes a record,
   reports for each pair what a tracer given that pair alone reports.
   Half the seeds release banks eagerly, so that pairs disagree. *)
let fused_matches_separate seed =
  let src = Fuzz_gen.gen_program seed in
  let otac = Compiler.Opt.program (Ir.Lower.compile src) in
  let prog =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Annotated { optimized = true })
      (Compiler.Stl_table.build otac) otac
  in
  let release = if seed land 1 = 0 then Some (1, 0.5) else Some (4, 0.9) in
  let configs =
    List.map
      (fun l ->
        {
          Test_core.Tracer.default_config with
          Test_core.Tracer.ld_limit = l;
          st_limit = l;
          release_overflowing = release;
        })
      [ 1; 2; 4; 64 ]
  in
  let run group =
    let t = Test_core.Tracer.create_fused group in
    ignore
      (Hydra.Seq_interp.run ~tracing:true ~sink:(Test_core.Tracer.sink t) prog);
    t
  in
  (* each config with the view of the run and pair that served it *)
  let rec serve = function
    | [] -> []
    | group ->
        let t = run group in
        let gone = Test_core.Tracer.departed t in
        List.concat
          (List.mapi
             (fun pair c ->
               if List.mem pair gone then []
               else [ (c, Test_tracer.pair_view t ~pair) ])
             group)
        @ serve (List.map (List.nth group) gone)
  in
  let served = serve configs in
  List.for_all
    (fun c -> List.assoc c served = Test_tracer.pair_view (run [ c ]) ~pair:0)
    configs

let roundtrip seed =
  let src = Fuzz_gen.gen_program seed in
  let ast1 = Ir.Parser.parse src in
  let printed = Ir.Pretty.program_to_string ast1 in
  let ast2 = Ir.Parser.parse printed in
  Ir.Pretty.strip_positions_program ast1 = Ir.Pretty.strip_positions_program ast2

let prop_fused =
  QCheck.Test.make ~name:"fused tracer = one tracer per limit pair" ~count:40
    QCheck.(int_range 1 1_000_000)
    fused_matches_separate

let prop_roundtrip =
  QCheck.Test.make ~name:"parse∘print∘parse is the identity" ~count:60
    QCheck.(int_range 1 1_000_000)
    roundtrip

(* the printer also round-trips the hand-written workloads *)
let test_workload_roundtrip () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = Workloads.Registry.default_source w in
      let ast1 = Ir.Parser.parse src in
      let ast2 = Ir.Parser.parse (Ir.Pretty.program_to_string ast1) in
      if
        Ir.Pretty.strip_positions_program ast1
        <> Ir.Pretty.strip_positions_program ast2
      then Alcotest.fail (w.Workloads.Workload.name ^ " does not round-trip"))
    Workloads.Registry.all

(* printed programs still typecheck and run identically *)
let test_print_preserves_semantics () =
  List.iter
    (fun seed ->
      let src = Fuzz_gen.gen_program seed in
      let printed = Ir.Pretty.program_to_string (Ir.Parser.parse src) in
      let run s =
        let prog, _ = Compiler.Codegen.compile_source ~mode:Compiler.Codegen.Plain s in
        List.map Ir.Value.to_string (Hydra.Seq_interp.run prog).Hydra.Seq_interp.output
      in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d" seed)
        (run src) (run printed))
    [ 3; 1417; 99991 ]

let suites =
  [
    ( "fuzz.differential",
      [
        QCheck_alcotest.to_alcotest prop_engines;
        QCheck_alcotest.to_alcotest prop_fused;
        QCheck_alcotest.to_alcotest prop_roundtrip;
        Alcotest.test_case "workloads round-trip" `Quick test_workload_roundtrip;
        Alcotest.test_case "print preserves semantics" `Quick
          test_print_preserves_semantics;
      ] );
  ]
