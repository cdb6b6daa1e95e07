type arc_bin = Prev | Earlier

type t =
  | Phase_begin of { phase : string; at_s : float }
  | Phase_end of { phase : string; at_s : float; span_s : float }
  | Bank_alloc of { stl : int; now : int }
  | Bank_starved of { stl : int; now : int }
  | Bank_release of { stl : int; now : int; overflow_freq : float }
  | Arc_found of { stl : int; bin : arc_bin; len : int; pc : int }
  | Overflow of { stl : int; ld_lines : int; st_lines : int; now : int }
  | Decision of {
      stl : int;
      est_speedup : float;
      spec_time : float;
      nested_time : float;
      overflow_freq : float;
      crit_prev_freq : float;
      crit_prev_len : float;
      avg_thread_size : float;
      chosen : bool;
    }
  | Tls_commit of { rank : int; now : int }
  | Tls_violation of { rank : int; now : int }
  | Tls_overflow_stall of { rank : int; now : int }
  | Tls_sync_stall of { pc : int; now : int }
  | Tls_work of { passes : int; steps : int; run_ahead : int }
  | Interp_work of { instructions : int }
  | Replay_work of {
      events : int;
      bytes : int;
      tracer_events : int;
      tracer_runs : int;
      splits : int;
    }

let label = function
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Bank_alloc _ -> "bank_alloc"
  | Bank_starved _ -> "bank_starved"
  | Bank_release _ -> "bank_release"
  | Arc_found { bin = Prev; _ } -> "arc_found_prev"
  | Arc_found { bin = Earlier; _ } -> "arc_found_earlier"
  | Overflow _ -> "overflow"
  | Decision _ -> "decision"
  | Tls_commit _ -> "tls_commit"
  | Tls_violation _ -> "tls_violation"
  | Tls_overflow_stall _ -> "tls_overflow_stall"
  | Tls_sync_stall _ -> "tls_sync_stall"
  | Tls_work _ -> "tls_work"
  | Interp_work _ -> "interp_work"
  | Replay_work _ -> "replay_work"

let all_labels =
  [
    "phase_begin";
    "phase_end";
    "bank_alloc";
    "bank_starved";
    "bank_release";
    "arc_found_prev";
    "arc_found_earlier";
    "overflow";
    "decision";
    "tls_commit";
    "tls_violation";
    "tls_overflow_stall";
    "tls_sync_stall";
  ]

let to_json t =
  let fields =
    match t with
    | Phase_begin { phase; at_s } ->
        [ ("phase", Json.String phase); ("at_s", Json.Float at_s) ]
    | Phase_end { phase; at_s; span_s } ->
        [
          ("phase", Json.String phase);
          ("at_s", Json.Float at_s);
          ("span_s", Json.Float span_s);
        ]
    | Bank_alloc { stl; now } | Bank_starved { stl; now } ->
        [ ("stl", Json.Int stl); ("now", Json.Int now) ]
    | Bank_release { stl; now; overflow_freq } ->
        [
          ("stl", Json.Int stl);
          ("now", Json.Int now);
          ("overflow_freq", Json.Float overflow_freq);
        ]
    | Arc_found { stl; bin = _; len; pc } ->
        [ ("stl", Json.Int stl); ("len", Json.Int len); ("pc", Json.Int pc) ]
    | Overflow { stl; ld_lines; st_lines; now } ->
        [
          ("stl", Json.Int stl);
          ("ld_lines", Json.Int ld_lines);
          ("st_lines", Json.Int st_lines);
          ("now", Json.Int now);
        ]
    | Decision
        {
          stl;
          est_speedup;
          spec_time;
          nested_time;
          overflow_freq;
          crit_prev_freq;
          crit_prev_len;
          avg_thread_size;
          chosen;
        } ->
        [
          ("stl", Json.Int stl);
          ("est_speedup", Json.Float est_speedup);
          ("spec_time", Json.Float spec_time);
          ("nested_time", Json.Float nested_time);
          ("overflow_freq", Json.Float overflow_freq);
          ("crit_prev_freq", Json.Float crit_prev_freq);
          ("crit_prev_len", Json.Float crit_prev_len);
          ("avg_thread_size", Json.Float avg_thread_size);
          ("chosen", Json.Bool chosen);
        ]
    | Tls_commit { rank; now }
    | Tls_violation { rank; now }
    | Tls_overflow_stall { rank; now } ->
        [ ("rank", Json.Int rank); ("now", Json.Int now) ]
    | Tls_sync_stall { pc; now } ->
        [ ("pc", Json.Int pc); ("now", Json.Int now) ]
    | Tls_work { passes; steps; run_ahead } ->
        [
          ("passes", Json.Int passes);
          ("steps", Json.Int steps);
          ("run_ahead", Json.Int run_ahead);
        ]
    | Interp_work { instructions } -> [ ("instructions", Json.Int instructions) ]
    | Replay_work { events; bytes; tracer_events; tracer_runs; splits } ->
        [
          ("events", Json.Int events);
          ("bytes", Json.Int bytes);
          ("tracer_events", Json.Int tracer_events);
          ("tracer_runs", Json.Int tracer_runs);
          ("splits", Json.Int splits);
        ]
  in
  Json.Obj (("event", Json.String (label t)) :: fields)
