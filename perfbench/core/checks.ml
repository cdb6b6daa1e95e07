module RS = Jrpm.Report_summary

let summary_string s = Obs.Json.to_string (RS.to_json s)

let find_baseline baseline name =
  List.find_opt (fun (b : RS.t) -> b.RS.name = name) baseline

let equals_baseline baseline (s : RS.t) =
  match find_baseline baseline s.RS.name with
  | Some b -> summary_string b = summary_string s
  | None -> false

let sweep tally ~baseline (current : RS.t list) =
  match Jrpm.Regression.diff ~baseline ~current () with
  | exception Failure msg ->
      List.iter (fun (b : RS.t) -> Tally.check tally ~what:(b.RS.name ^ ": " ^ msg) false) baseline
  | d ->
      List.iter
        (fun (name, wd) ->
          let diff_ok =
            match wd with
            | Jrpm.Regression.Matched fields ->
                List.for_all
                  (fun f -> f.Jrpm.Regression.field_verdict <> Jrpm.Regression.Fail)
                  fields
            | Added | Removed -> false
          in
          let outputs_ok =
            List.exists (fun (s : RS.t) -> s.RS.name = name && s.RS.outputs_match) current
          in
          Tally.check tally ~what:("sweep " ^ name) (diff_ok && outputs_ok))
        d.Jrpm.Regression.workloads

let explore tally ~baseline ~points ~records (t : Jrpm.Explore.t) =
  Tally.check tally ~what:"explore matrix shape"
    (List.length t.Jrpm.Explore.points = points
    && List.for_all
         (fun (p : Jrpm.Explore.point_result) -> List.length p.Jrpm.Explore.cells = records)
         t.Jrpm.Explore.points);
  let defaults = Jrpm.Explore.default_summaries t in
  List.iter
    (fun (b : RS.t) ->
      let ok =
        match List.find_opt (fun (s : RS.t) -> s.RS.name = b.RS.name) defaults with
        | Some s -> summary_string s = summary_string b
        | None -> false
      in
      Tally.check tally ~what:("explore default " ^ b.RS.name) ok)
    baseline

let ( let* ) = Option.bind

let summary_of json = try Some (RS.of_json json) with _ -> None

let serve_ok ~baseline (req : Jrpm.Daemon.request) (rsp : Jrpm.Daemon.response) =
  let open Obs.Json in
  match rsp.Jrpm.Daemon.rsp with
  | Error _ -> false
  | Ok result -> (
      let matches_baseline json =
        match summary_of json with Some s -> equals_baseline baseline s | None -> false
      in
      let first key json =
        let* l = Option.bind (member key json) to_list in
        match l with x :: _ -> Some x | [] -> None
      in
      match req with
      | Jrpm.Daemon.Replay _ ->
          member "matches" result = Some (Bool true)
          && Option.fold ~none:false ~some:matches_baseline (first "summaries" result)
      | Explore _ ->
          Option.fold ~none:false ~some:matches_baseline
            (let* point = first "points" result in
             let* cell = first "cells" point in
             member "summary" cell)
      | Profile _ ->
          Option.fold ~none:false ~some:matches_baseline (member "summary" result)
      | Ping | Stats | Sleep _ | Shutdown -> true)
