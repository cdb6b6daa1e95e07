type t = (string, float) Hashtbl.t

let create () = Hashtbl.create 16

let add t name dt =
  Hashtbl.replace t name (dt +. Option.value (Hashtbl.find_opt t name) ~default:0.)

let time t name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add t name (Unix.gettimeofday () -. t0)) f

let total t name = Option.value (Hashtbl.find_opt t name) ~default:0.
