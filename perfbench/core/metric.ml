type t = { name : string; unit_ : string; value : float }

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type spec = { end_to_end : (string * string) list; per_layer : (string * string) list }

let spec_of_json json =
  let section key =
    match Option.bind (Obs.Json.member key json) Obs.Json.to_list with
    | None -> failwith (Printf.sprintf "BENCHMARK.json: no %S list" key)
    | Some entries ->
        List.map
          (fun e ->
            let field f =
              match Option.bind (Obs.Json.member f e) Obs.Json.to_string_opt with
              | Some s -> s
              | None -> failwith (Printf.sprintf "BENCHMARK.json: %s entry without %S" key f)
            in
            (field "name", field "unit"))
          entries
  in
  { end_to_end = section "end_to_end"; per_layer = section "per_layer" }

let load_spec path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  spec_of_json (Obs.Json.parse_exn text)

let validate ~declared metrics =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun m ->
      if not (valid_name m.name) then problem "invalid metric name %S" m.name;
      if not (valid_unit m.unit_) then problem "invalid unit %S for %s" m.unit_ m.name;
      if Hashtbl.mem seen m.name then problem "metric %s reported twice" m.name;
      Hashtbl.replace seen m.name ();
      if not (Float.is_finite m.value) then problem "metric %s is not finite" m.name;
      match List.assoc_opt m.name declared with
      | None -> problem "metric %s is not declared" m.name
      | Some u when u <> m.unit_ ->
          problem "metric %s has unit %s, declared %s" m.name m.unit_ u
      | Some _ -> ())
    metrics;
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem seen name) then problem "declared metric %s is missing" name)
    declared;
  match List.rev !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

let result_line ~declared ~(tally : Tally.t) metrics =
  (match validate ~declared metrics with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Metric.result_line: " ^ msg));
  let by_name name = List.find (fun m -> m.name = name) metrics in
  let open Obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool (Tally.correct tally));
         ("attempted", Int tally.Tally.attempted);
         ("failed", Int tally.Tally.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, _) ->
                  let m = by_name name in
                  (name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                declared) );
       ])
