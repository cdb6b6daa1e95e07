type entry = {
  pc : int;
  func_name : string;
  func_offset : int;
  hits : int;
  avg_len : float;
  min_len : int;
  avg_thread_size : float;
  limiting : bool;
}

let resolve_pc (p : Hydra.Native.program) pc =
  let found = ref ("?", pc) in
  Array.iter
    (fun (f : Hydra.Native.func) ->
      if pc >= f.pc_base && pc < f.pc_base + Array.length f.code then
        found := (f.name, pc - f.pc_base))
    p.funcs;
  !found

let of_stats (p : Hydra.Native.program) (s : Stats.t) : entry list =
  Stats.fold_pc_bins
    (fun pc (bin : Stats.pc_bin) acc ->
      let func_name, func_offset = resolve_pc p pc in
      let avg_len = Float.of_int bin.total_len /. Float.of_int (max 1 bin.hits) in
      let avg_thread_size =
        Float.of_int bin.thread_size_sum /. Float.of_int (max 1 bin.hits)
      in
      {
        pc;
        func_name;
        func_offset;
        hits = bin.hits;
        avg_len;
        min_len = bin.min_len;
        avg_thread_size;
        (* a frequent arc much shorter than the thread size limits
           parallelism and is a candidate for scheduling/synchronization *)
        limiting = avg_len < 0.75 *. Stats.avg_thread_size s;
      }
      :: acc)
    s []
  (* most arcs first; equal counts by PC, so the order does not depend
     on the table's slot order *)
  |> List.sort (fun a b ->
         match compare b.hits a.hits with 0 -> compare a.pc b.pc | c -> c)

let pp ppf entries =
  Format.fprintf ppf "@[<v>%-20s %8s %10s %8s %s@," "load site" "arcs"
    "avg len" "min len" "limiting?";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-20s %8d %10.1f %8d %s@,"
        (Printf.sprintf "%s+%d" e.func_name e.func_offset)
        e.hits e.avg_len e.min_len
        (if e.limiting then "YES" else "no"))
    entries;
  Format.fprintf ppf "@]"
