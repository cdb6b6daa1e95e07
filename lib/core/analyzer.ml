type estimate = {
  est_stl : int;
  seq_cycles : int;
  avg_thread_size : float;
  avg_iters_per_entry : float;
  crit_prev_freq : float;
  crit_prev_len : float;
  crit_earlier_freq : float;
  crit_earlier_len : float;
  overflow_freq : float;
  base_speedup : float;
  spec_time : float;
  est_speedup : float;
}

let estimate ?(config = Hydra.Config.default) ?cpus (s : Stats.t) : estimate =
  let cpus = Option.value cpus ~default:config.Hydra.Config.num_cpus in
  let p = Float.of_int cpus in
  let t_size = Stats.avg_thread_size s in
  let f_prev = Float.min 1. (Stats.crit_prev_freq s) in
  let f_earlier = Float.min (1. -. f_prev) (Stats.crit_earlier_freq s) in
  let l_prev = Stats.avg_crit_prev_len s in
  let l_earlier = Stats.avg_crit_earlier_len s in
  let f_ovf = Stats.overflow_freq s in
  (* speedup under an arc of average length L at thread distance d:
     initiation interval I >= max(T/p, T - L/d); speedup = T / I *)
  let arc_speedup l d =
    if t_size <= 0. then 1.
    else
      let interval = Float.max (t_size /. p) (t_size -. (l /. d)) in
      if interval <= 0. then p else Float.min p (t_size /. interval)
  in
  let sp_prev = arc_speedup l_prev 1. in
  let sp_earlier = arc_speedup l_earlier 2. in
  let f_none = Float.max 0. (1. -. f_prev -. f_earlier) in
  let base =
    Float.max 1.
      (Float.min p
         ((f_prev *. sp_prev) +. (f_earlier *. sp_earlier) +. (f_none *. p)))
  in
  (* Equation 1: per-entry startup/shutdown, per-thread eoi, and
     overflow-forced serialization. *)
  let entries = Float.of_int s.Stats.entries in
  let threads = Float.of_int s.Stats.threads in
  let orig = Float.of_int s.Stats.cycles in
  let eoi = Float.of_int config.Hydra.Config.loop_eoi in
  let startup =
    Float.of_int
      (config.Hydra.Config.loop_startup + config.Hydra.Config.loop_shutdown)
  in
  let par_body = (orig +. (eoi *. threads)) *. (((1. -. f_ovf) /. base) +. f_ovf) in
  let spec_time = (startup *. entries) +. par_body in
  let est_speedup = if spec_time <= 0. then 1. else orig /. spec_time in
  {
    est_stl = s.Stats.stl;
    seq_cycles = s.Stats.cycles;
    avg_thread_size = t_size;
    avg_iters_per_entry = Stats.avg_iters_per_entry s;
    crit_prev_freq = f_prev;
    crit_prev_len = l_prev;
    crit_earlier_freq = f_earlier;
    crit_earlier_len = l_earlier;
    overflow_freq = f_ovf;
    base_speedup = base;
    spec_time;
    est_speedup;
  }

type choice = {
  chosen_stl : int;
  coverage : float;
  speedup : float;
  stl_cycles : int;
}

type selection = {
  chosen : choice list;
  program_cycles : int;
  predicted_cycles : float;
  predicted_speedup : float;
  serial_cycles : int;
}

let select ?(config = Hydra.Config.default) ?cpus ?(obs = Obs.Sink.null) ~stats
    ~child_cycles ~program_cycles () =
  let cpus = Option.value cpus ~default:config.Hydra.Config.num_cpus in
  let est_tbl = Hashtbl.create 32 in
  List.iter
    (fun (stl, s) -> Hashtbl.replace est_tbl stl (estimate ~config ~cpus s, s))
    stats;
  (* majority dynamic parent per STL *)
  let parent_votes : (int, (int * int) list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ((parent, child), cyc) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt parent_votes child) in
      Hashtbl.replace parent_votes child ((parent, cyc) :: cur))
    child_cycles;
  let parent_of child =
    match Hashtbl.find_opt parent_votes child with
    | None | Some [] -> -1
    | Some votes ->
        fst (List.fold_left (fun (bp, bc) (p, c) -> if c > bc then (p, c) else (bp, bc))
               (-1, min_int) votes)
  in
  let children_of = Hashtbl.create 32 in
  List.iter
    (fun (stl, _) ->
      let p = parent_of stl in
      let cur = Option.value ~default:[] (Hashtbl.find_opt children_of p) in
      Hashtbl.replace children_of p (stl :: cur))
    stats;
  let cycles_of stl =
    match Hashtbl.find_opt est_tbl stl with
    | Some (_, s) -> s.Stats.cycles
    | None -> 0
  in
  (* Equation 2 DP. Returns (best_time, chosen list inside this subtree). *)
  let rec best stl =
    let children = Option.value ~default:[] (Hashtbl.find_opt children_of stl) in
    let child_results = List.map (fun c -> (c, best c)) children in
    let child_best_sum =
      List.fold_left (fun acc (_, (t, _)) -> acc +. t) 0. child_results
    in
    let child_cycle_sum =
      List.fold_left (fun acc c -> acc + cycles_of c) 0 children
    in
    let my_cycles = cycles_of stl in
    let serial_inside = Float.of_int (max 0 (my_cycles - child_cycle_sum)) in
    let nested_time = serial_inside +. child_best_sum in
    let nested_chosen = List.concat_map (fun (_, (_, ch)) -> ch) child_results in
    match Hashtbl.find_opt est_tbl stl with
    | None -> (nested_time, nested_chosen)
    | Some (e, _) ->
        let speculate = e.spec_time < nested_time && e.est_speedup > 1.02 in
        (* Surface the Eq. 1 / Eq. 2 inputs that justified this verdict. *)
        if Obs.Sink.enabled obs then
          Obs.Sink.emit obs
            (Obs.Event.Decision
               {
                 stl;
                 est_speedup = e.est_speedup;
                 spec_time = e.spec_time;
                 nested_time;
                 overflow_freq = e.overflow_freq;
                 crit_prev_freq = e.crit_prev_freq;
                 crit_prev_len = e.crit_prev_len;
                 avg_thread_size = e.avg_thread_size;
                 chosen = speculate;
               });
        if speculate then
          ( e.spec_time,
            [
              {
                chosen_stl = stl;
                coverage =
                  Float.of_int my_cycles /. Float.of_int (max 1 program_cycles);
                speedup = e.est_speedup;
                stl_cycles = my_cycles;
              };
            ] )
        else (nested_time, nested_chosen)
  in
  let roots = Option.value ~default:[] (Hashtbl.find_opt children_of (-1)) in
  let root_results = List.map (fun r -> (r, best r)) roots in
  let covered = List.fold_left (fun acc r -> acc + cycles_of r) 0 roots in
  let serial_cycles = max 0 (program_cycles - covered) in
  let predicted_cycles =
    Float.of_int serial_cycles
    +. List.fold_left (fun acc (_, (t, _)) -> acc +. t) 0. root_results
  in
  let chosen =
    List.concat_map (fun (_, (_, ch)) -> ch) root_results
    |> List.sort (fun a b -> compare b.coverage a.coverage)
  in
  {
    chosen;
    program_cycles;
    predicted_cycles;
    predicted_speedup =
      (if predicted_cycles <= 0. then 1.
       else Float.of_int program_cycles /. predicted_cycles);
    serial_cycles;
  }
