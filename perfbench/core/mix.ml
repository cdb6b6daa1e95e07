(* Shares assumed, not derived from recorded traffic: see mix.mli. *)
let replays_per_container = 2
let explores_per_block = 3
let explore_grid = [ "cpus=8" ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Containers to explore, in turn: a fresh shuffled permutation of all
   of them whenever the last one is used up, so that every container is
   explored once per [Array.length containers] explores. *)
let next_explored rng ~containers queue =
  (match !queue with
  | [] ->
      let order = Array.init (Array.length containers) Fun.id in
      shuffle rng order;
      queue := Array.to_list order
  | _ -> ());
  match !queue with
  | i :: rest ->
      queue := rest;
      fst containers.(i)
  | [] -> assert false

let block rng ~containers ~programs ~explore_queue =
  let replays =
    List.concat_map
      (fun (path, record) ->
        List.init replays_per_container (fun _ ->
            Jrpm.Daemon.Replay { path; record = Some record }))
      (Array.to_list containers)
  in
  let explores =
    List.init explores_per_block (fun _ ->
        Jrpm.Daemon.Explore
          { path = next_explored rng ~containers explore_queue; grid = explore_grid })
  in
  let profiles = List.map (fun w -> Jrpm.Daemon.Profile w) (Array.to_list programs) in
  let b = Array.of_list (replays @ explores @ profiles) in
  shuffle rng b;
  b

let requests ~seed ~containers ~programs n =
  if Array.length containers = 0 || Array.length programs = 0 then
    invalid_arg "Mix.requests: no containers or no programs";
  let rng = Util.Rng.create ~seed in
  let explore_queue = ref [] in
  let out = ref [] and have = ref 0 in
  while !have < n do
    let b = block rng ~containers ~programs ~explore_queue in
    out := b :: !out;
    have := !have + Array.length b
  done;
  Array.sub (Array.concat (List.rev !out)) 0 n
