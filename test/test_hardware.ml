(* Table 5: the transistor-count model. *)

let test_table5_shape () =
  let t = Hydra.Hardware_cost.estimate () in
  (* the headline claim: TEST adds < 1% of the CMP's transistors *)
  Alcotest.(check bool) "TEST < 1%" true (Hydra.Hardware_cost.test_fraction t < 0.01);
  (* the L2 dominates, as in the paper (~85%) *)
  let l2 =
    List.find
      (fun (r : Hydra.Hardware_cost.row) ->
        String.length r.structure > 2 && String.sub r.structure 0 2 = "2M")
      t.Hydra.Hardware_cost.rows
  in
  let frac = float_of_int l2.Hydra.Hardware_cost.total /. float_of_int t.grand_total in
  Alcotest.(check bool) "L2 ~85%" true (frac > 0.80 && frac < 0.90);
  (* the paper's SRAM-dominated figures (its "K" rounds inconsistently,
     so allow ~3%): L2 ~98304K, L1 pair ~1573K *)
  Alcotest.(check bool) "L2 ~98-101M" true
    (l2.Hydra.Hardware_cost.total >= 98_000_000
    && l2.Hydra.Hardware_cost.total <= 101_000_000);
  let l1 =
    List.find
      (fun (r : Hydra.Hardware_cost.row) ->
        r.Hydra.Hardware_cost.count = 4 && r.structure <> "CPU + FP core")
      t.rows
  in
  Alcotest.(check int) "L1 pair each 1573K" 1_572_864 l1.Hydra.Hardware_cost.each

let test_scaling () =
  let base = Hydra.Hardware_cost.estimate () in
  let sixteen = { Hydra.Config.default with comparator_banks = 16 } in
  let more_banks = Hydra.Hardware_cost.estimate ~config:sixteen () in
  Alcotest.(check bool) "more banks cost more" true
    (more_banks.Hydra.Hardware_cost.grand_total > base.Hydra.Hardware_cost.grand_total);
  (* even doubled, TEST stays well under 1% *)
  Alcotest.(check bool) "16 banks still < 1%" true
    (Hydra.Hardware_cost.test_fraction more_banks < 0.01);
  (* an explicit override that agrees with the config is redundant but
     legal; the same count via either route is the same estimate *)
  let explicit =
    Hydra.Hardware_cost.estimate ~config:sixteen ~comparator_banks:16 ()
  in
  Alcotest.(check int) "agreeing override"
    more_banks.Hydra.Hardware_cost.grand_total
    explicit.Hydra.Hardware_cost.grand_total

let test_config_disagreement () =
  (* an explicit ~comparator_banks/~cpus that contradicts the hardware
     config is the silent-default bug this layer exists to catch *)
  let boom f =
    match f () with
    | (_ : Hydra.Hardware_cost.t) ->
        Alcotest.fail "disagreeing override was accepted"
    | exception Invalid_argument _ -> ()
  in
  boom (fun () -> Hydra.Hardware_cost.estimate ~comparator_banks:16 ());
  boom (fun () -> Hydra.Hardware_cost.estimate ~cpus:8 ());
  boom (fun () ->
      Hydra.Hardware_cost.estimate
        ~config:{ Hydra.Config.default with num_cpus = 8 }
        ~cpus:4 ())

let test_instr_costs_positive () =
  (* every native instruction must have a nonnegative cost, and
     annotations must be cheaper than the stats read *)
  Alcotest.(check bool) "lwl cheap" true
    (Hydra.Cost.cost_anno_local < Hydra.Cost.cost_read_stats);
  let hw = Hydra.Config.default in
  Alcotest.(check bool) "table 2 values" true
    (hw.loop_startup = 25 && hw.loop_shutdown = 25 && hw.loop_eoi = 5
   && hw.violation_restart = 5 && hw.store_load_communication = 10);
  Alcotest.(check bool) "table 1 values" true
    (hw.load_buffer_lines = 512 && hw.store_buffer_lines = 64)

let suites =
  [
    ( "hardware.table5",
      [
        Alcotest.test_case "shape and totals" `Quick test_table5_shape;
        Alcotest.test_case "scaling" `Quick test_scaling;
        Alcotest.test_case "config disagreement" `Quick test_config_disagreement;
        Alcotest.test_case "cost constants" `Quick test_instr_costs_positive;
      ] );
  ]
