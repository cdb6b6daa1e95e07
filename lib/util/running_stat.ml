type t = {
  mutable n : int;
  mutable total : float;
  mutable mn : float;
  mutable mx : float;
}

let create () = { n = 0; total = 0.; mn = infinity; mx = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let count t = t.n
let sum t = t.total
let mean t = if t.n = 0 then 0. else t.total /. Float.of_int t.n
let min t = if t.n = 0 then invalid_arg "Running_stat.min" else t.mn
let max t = if t.n = 0 then invalid_arg "Running_stat.max" else t.mx

let reset t =
  t.n <- 0;
  t.total <- 0.;
  t.mn <- infinity;
  t.mx <- neg_infinity

let merge t other =
  t.n <- t.n + other.n;
  t.total <- t.total +. other.total;
  if other.mn < t.mn then t.mn <- other.mn;
  if other.mx > t.mx then t.mx <- other.mx
