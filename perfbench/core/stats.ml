let rank ~n ~pct =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if pct <= 0 || pct > 100 then invalid_arg "Stats.rank: pct outside 1..100";
  max 1 ((pct * n + 99) / 100)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile xs ~pct =
  let a = sorted xs in
  a.(rank ~n:(Array.length a) ~pct - 1)

let beyond ~n ~pct = n - rank ~n ~pct
let median xs = percentile xs ~pct:50

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
