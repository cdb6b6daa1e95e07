type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let create () = { attempted = 0; failed = 0; first_failure = None }

let check t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some what
  end

let add t ~attempted ~failed ~first_failure =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  if t.first_failure = None then t.first_failure <- first_failure

let failed_ratio t =
  if t.attempted = 0 then 1.
  else float_of_int t.failed /. float_of_int t.attempted

let ok_ratio t = 1. -. failed_ratio t
let correct t = t.attempted > 0 && t.failed = 0
