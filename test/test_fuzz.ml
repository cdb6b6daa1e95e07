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

(* The tracer on geometries that are not powers of two — 3-word lines
   and 100/48 or 5/3 load/store dedup entries — where the line and dedup
   arithmetic divides instead of shifting. The 5/3 geometry also
   overflows (its load limit is 5 lines) and conflicts in both dedup
   tables. Pinned per seed: the total cycles, arcs and overflowing
   threads over all STLs, the load/store dedup conflicts, and an MD5 of
   [Test_tracer.stats_digest] and [Tracer.child_cycles] in full. *)
let odd_geometry_view ~load_buffer ~cacheline_ts seed =
  let otac = Compiler.Opt.program (Ir.Lower.compile (Fuzz_gen.gen_program seed)) in
  let prog =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Annotated { optimized = true })
      (Compiler.Stl_table.build otac) otac
  in
  let config =
    Test_core.Tracer.config_of
      {
        Hydra.Config.default with
        Hydra.Config.line_words = 3;
        load_buffer_lines = load_buffer;
        cacheline_ts_lines = cacheline_ts;
      }
  in
  let t = Test_core.Tracer.create ~config () in
  ignore (Hydra.Seq_interp.run ~tracing:true ~sink:(Test_core.Tracer.sink t) prog);
  let stats = Test_core.Tracer.stats t in
  let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 stats in
  Printf.sprintf
    "seed %d: cycles %d arcs %d overflow %d conflicts %d/%d digest %s" seed
    (sum (fun s -> s.Test_core.Stats.cycles))
    (sum (fun s -> s.Test_core.Stats.crit_prev_count + s.crit_earlier_count))
    (sum (fun s -> s.Test_core.Stats.overflow_threads))
    (Test_core.Tracer.ld_dedup_conflicts t)
    (Test_core.Tracer.st_dedup_conflicts t)
    (Digest.to_hex
       (Digest.string
          (Marshal.to_string
             (Test_tracer.stats_digest stats, Test_core.Tracer.child_cycles t)
             [])))

let odd_seeds = [ 4; 44; 230; 343 ]

let test_odd_geometry_pinned () =
  Alcotest.(check (list string))
    "line_words=3 load_buffer=100 cacheline_ts=48"
    [
      "seed 4: cycles 37292 arcs 165 overflow 0 conflicts 0/0 digest b2fb00c735e6e50879043a2671e93acd";
      "seed 44: cycles 29898 arcs 135 overflow 0 conflicts 0/0 digest 85873eb090153630934266f7d17c4c99";
      "seed 230: cycles 37334 arcs 136 overflow 0 conflicts 0/0 digest b3d1247df03a457479c94e98a5f0fd94";
      "seed 343: cycles 60382 arcs 137 overflow 0 conflicts 0/0 digest 9a0a2be46c118927bc642cddbb80102b";
    ]
    (List.map (odd_geometry_view ~load_buffer:100 ~cacheline_ts:48) odd_seeds);
  Alcotest.(check (list string))
    "line_words=3 load_buffer=5 cacheline_ts=3"
    [
      "seed 4: cycles 37292 arcs 165 overflow 38 conflicts 501/38 digest 1e5d15c4bc385483968e53054d5ebe75";
      "seed 44: cycles 29898 arcs 135 overflow 0 conflicts 41/134 digest 5ba410e61a47d74e38e4c4eeb5a340b5";
      "seed 230: cycles 37334 arcs 136 overflow 18 conflicts 233/109 digest 37d44d56624690678bf7d1ecb13d68b0";
      "seed 343: cycles 60382 arcs 137 overflow 30 conflicts 291/154 digest bd820e7c82286901fddb8d16c967a863";
    ]
    (List.map (odd_geometry_view ~load_buffer:5 ~cacheline_ts:3) odd_seeds)

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
        Alcotest.test_case "tracer pinned on a non-power-of-two geometry"
          `Quick test_odd_geometry_pinned;
      ] );
  ]
