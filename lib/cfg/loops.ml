type loop = {
  header : Ir.Tac.label;
  body : Ir.Tac.label list;
  latches : Ir.Tac.label list;
  exit_edges : (Ir.Tac.label * Ir.Tac.label) list;
  entry_edges : (Ir.Tac.label * Ir.Tac.label) list;
  depth : int;
  parent : int option;
  children : int list;
}

type t = {
  graph : Cfgraph.t;
  doms : Dominators.t;
  loops : loop array;
}

module IntSet = Set.Make (Int)

let natural_loop_body g header latches =
  (* all blocks that reach a latch without passing through the header *)
  let body = ref (IntSet.singleton header) in
  let rec add l =
    if not (IntSet.mem l !body) then begin
      body := IntSet.add l !body;
      List.iter add (Cfgraph.preds g l)
    end
  in
  List.iter add latches;
  !body

let analyze (f : Ir.Tac.func) =
  let g = Cfgraph.of_func f in
  let doms = Dominators.compute g in
  (* find back edges: d -> h where h dominates d *)
  let back_edges = Hashtbl.create 8 (* header -> latches *) in
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          if Dominators.dominates doms s b then begin
            let cur = Option.value ~default:[] (Hashtbl.find_opt back_edges s) in
            Hashtbl.replace back_edges s (b :: cur)
          end)
        (Cfgraph.succs g b))
    (Cfgraph.rpo g);
  let raw =
    Hashtbl.fold
      (fun header latches acc ->
        let body = natural_loop_body g header latches in
        (header, latches, body) :: acc)
      back_edges []
  in
  (* sort by body size descending so parents precede children *)
  let raw =
    List.sort
      (fun (_, _, a) (_, _, b) -> compare (IntSet.cardinal b) (IntSet.cardinal a))
      raw
  in
  let n = List.length raw in
  let arr = Array.of_list raw in
  let parent = Array.make n None in
  let depth = Array.make n 1 in
  for i = 0 to n - 1 do
    let _, _, body_i = arr.(i) in
    (* smallest enclosing loop = last j < i whose body contains our header *)
    let hdr, _, _ = arr.(i) in
    for j = 0 to i - 1 do
      let hj, _, body_j = arr.(j) in
      if hj <> hdr && IntSet.mem hdr body_j && IntSet.subset body_i body_j then begin
        match parent.(i) with
        | None -> parent.(i) <- Some j
        | Some p ->
            let _, _, body_p = arr.(p) in
            if IntSet.cardinal body_j < IntSet.cardinal body_p then
              parent.(i) <- Some j
      end
    done;
    (match parent.(i) with
    | Some p -> depth.(i) <- depth.(p) + 1
    | None -> depth.(i) <- 1)
  done;
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    match parent.(i) with
    | Some p -> children.(p) <- i :: children.(p)
    | None -> ()
  done;
  let loops =
    Array.mapi
      (fun i (header, latches, body) ->
        let body_list = IntSet.elements body in
        let exit_edges =
          List.concat_map
            (fun b ->
              List.filter_map
                (fun s -> if IntSet.mem s body then None else Some (b, s))
                (Cfgraph.succs g b))
            body_list
        in
        let entry_edges =
          List.filter_map
            (fun p ->
              if IntSet.mem p body then None else Some (p, header))
            (Cfgraph.preds g header)
        in
        {
          header;
          body = body_list;
          latches;
          exit_edges;
          entry_edges;
          depth = depth.(i);
          parent = parent.(i);
          children = children.(i);
        })
      arr
  in
  { graph = g; doms; loops }

let in_loop t i b = List.mem b t.loops.(i).body

let innermost_containing t b =
  let best = ref None in
  Array.iteri
    (fun i l ->
      if List.mem b l.body then
        match !best with
        | None -> best := Some i
        | Some j ->
            if List.length l.body < List.length t.loops.(j).body then
              best := Some i)
    t.loops;
  !best

let max_depth t = Array.fold_left (fun acc l -> max acc l.depth) 0 t.loops

let height t i =
  let rec h i =
    match t.loops.(i).children with
    | [] -> 0
    | cs -> 1 + List.fold_left (fun acc c -> max acc (h c)) 0 cs
  in
  h i
