(** Structured observability events emitted across the Jrpm pipeline.

    Each constructor corresponds to a decision or state change that was
    previously invisible without printf: pipeline phase boundaries
    (with wall-clock spans), TEST tracer activity (comparator-bank
    allocation, starvation, Sec.-5.2 release, dependency-arc detection,
    speculative-buffer overflow), analyzer Eq.-1/Eq.-2 decisions with
    the inputs that justified them, and TLS-simulator thread events.

    [now] fields are simulated-machine cycle timestamps; [at_s] /
    [span_s] are host wall-clock seconds (from [Unix.gettimeofday]). *)

type arc_bin =
  | Prev  (** arc into the immediately previous thread (t-1) *)
  | Earlier  (** arc into an earlier thread of the activation (<t-1) *)

type t =
  | Phase_begin of { phase : string; at_s : float }
  | Phase_end of { phase : string; at_s : float; span_s : float }
  | Bank_alloc of { stl : int; now : int }
      (** a comparator bank was assigned to an STL activation *)
  | Bank_starved of { stl : int; now : int }
      (** activation went untraced: no free bank or local-ts slots *)
  | Bank_release of { stl : int; now : int; overflow_freq : float }
      (** dynamic disabling (paper Sec. 5.2): the STL's measured
          overflow frequency made the tracer stop spending banks on it *)
  | Arc_found of { stl : int; bin : arc_bin; len : int; pc : int }
      (** the load at [pc] read data stored [len] cycles ago by a
          previous thread *)
  | Overflow of { stl : int; ld_lines : int; st_lines : int; now : int }
      (** the current thread's speculative line footprint first
          exceeded the Table-1 buffer limits *)
  | Decision of {
      stl : int;
      est_speedup : float;  (** Equation 1 output *)
      spec_time : float;  (** estimated cycles if run speculatively *)
      nested_time : float;  (** best serial+children alternative (Eq. 2) *)
      overflow_freq : float;
      crit_prev_freq : float;
      crit_prev_len : float;
      avg_thread_size : float;
      chosen : bool;  (** Eq. 2 picked this STL over its subtree *)
    }
  | Tls_commit of { rank : int; now : int }
  | Tls_violation of { rank : int; now : int }
      (** a speculative thread (and its juniors) restarted *)
  | Tls_overflow_stall of { rank : int; now : int }
  | Tls_sync_stall of { pc : int; now : int }
      (** learned synchronization delayed the load at [pc] *)
  | Tls_work of { passes : int; steps : int; run_ahead : int }
      (** one simulator run's host work, emitted once at its end:
          scheduler passes, thread steps the scheduler made, and
          frame-private instructions threads ran ahead. {!Recorder}
          adds them into the counters [tls.passes], [tls.steps] and
          [tls.run_ahead]; it neither logs nor counts the event. *)
  | Interp_work of { instructions : int }
      (** one sequential interpretation's instruction count, emitted
          once at its end. {!Recorder} adds it into the counter
          [interp.instructions]; it neither logs nor counts the
          event. *)
  | Replay_work of {
      events : int;
      bytes : int;
      tracer_events : int;
      tracer_runs : int;
      splits : int;
    }
      (** one replayed record's work, emitted once per record: the
          events and record bytes decoded (over every decode of the
          record, release-split re-decodes included), the events its
          tracers consumed, its fused tracer runs and the runs added by
          release splits. {!Recorder} adds them into the counters
          [trace_store.events], [trace_store.bytes], [tracer.events],
          [replay.tracer_runs] and [replay.splits]; it neither logs nor
          counts the event. *)

val label : t -> string
(** Stable snake_case tag, also used as the JSON ["event"] field and as
    the per-event counter name under [events.] in {!Recorder}. *)

val all_labels : string list
(** Every label {!label} can return for a logged event, in declaration
    order — used to pre-seed zero counters so exported dumps have a
    stable shape. [Tls_work], [Interp_work] and [Replay_work] are not
    logged, so their labels are not here. *)

val to_json : t -> Json.t
(** One flat object: [{"event": label, ...payload fields}]. *)
