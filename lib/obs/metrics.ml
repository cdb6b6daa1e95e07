type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of Util.Running_stat.t

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find t name ~make ~expect =
  match Hashtbl.find_opt t.tbl name with
  | Some m ->
      if kind_name m <> expect then
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %s is a %s, not a %s" name
             (kind_name m) expect);
      m
  | None ->
      let m = make () in
      Hashtbl.replace t.tbl name m;
      m

let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Obs.Metrics.incr: negative increment";
  match find t name ~make:(fun () -> Counter (ref 0)) ~expect:"counter" with
  | Counter r -> r := !r + by
  | _ -> assert false

let set_gauge t name v =
  match find t name ~make:(fun () -> Gauge (ref v)) ~expect:"gauge" with
  | Gauge r -> r := v
  | _ -> assert false

let observe t name v =
  match
    find t name
      ~make:(fun () -> Histogram (Util.Running_stat.create ()))
      ~expect:"histogram"
  with
  | Histogram rs -> Util.Running_stat.add rs v
  | _ -> assert false

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter r) -> !r
  | _ -> 0

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge r) -> Some !r
  | _ -> None

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram rs) -> Some rs
  | _ -> None

let merge t other =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter r -> incr t name ~by:!r
      | Gauge r -> set_gauge t name !r
      | Histogram rs -> (
          match
            find t name
              ~make:(fun () -> Histogram (Util.Running_stat.create ()))
              ~expect:"histogram"
          with
          | Histogram dst -> Util.Running_stat.merge dst rs
          | _ -> assert false))
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) other.tbl [])

let sorted_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_json rs =
  let open Util.Running_stat in
  let n = count rs in
  Json.Obj
    ([ ("count", Json.Int n); ("sum", Json.Float (sum rs)) ]
    @
    if n = 0 then []
    else
      [
        ("mean", Json.Float (mean rs));
        ("min", Json.Float (min rs));
        ("max", Json.Float (max rs));
      ])

let to_json t =
  let pick f = List.filter_map f (sorted_bindings t) in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (pick (function
            | name, Counter r -> Some (name, Json.Int !r)
            | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (function
            | name, Gauge r -> Some (name, Json.Float !r)
            | _ -> None)) );
      ( "histograms",
        Json.Obj
          (pick (function
            | name, Histogram rs -> Some (name, histogram_json rs)
            | _ -> None)) );
    ]

let rows t =
  List.map
    (fun (name, m) ->
      let value =
        match m with
        | Counter r -> string_of_int !r
        | Gauge r -> Printf.sprintf "%g" !r
        | Histogram rs ->
            let open Util.Running_stat in
            if count rs = 0 then "n=0"
            else
              Printf.sprintf "n=%d mean=%g min=%g max=%g" (count rs) (mean rs)
                (min rs) (max rs)
      in
      [ name; kind_name m; value ])
    (sorted_bindings t)
