(** Sequential execution of a native program on one Hydra CPU.

    [run] interprets the program from [main], counting cycles with the
    {!Cost} model. With [~tracing:true] the annotation instructions and
    all heap accesses are reported to [sink] (and the annotations cost
    their Table-4 overhead cycles); with [~tracing:false] annotations are
    free no-ops, modelling plain compiled code. TLS markers are no-ops
    here; {!Tls_sim.run} runs the same loop through {!exec}. *)

type result = {
  cycles : int;
  output : Ir.Value.t list;      (** print_int / print_float values, in order *)
  memory : Machine.Memory.t;
  instructions : int;            (** dynamic instruction count *)
  locals_cycles : int;           (** cycles of [lwl]/[swl] annotations *)
  read_stats_cycles : int;       (** cycles of statistics-read routines *)
  loop_anno_cycles : int;        (** cycles of [sloop]/[eloop]/[eoi] *)
  stub_cycles : int;
      (** cycles of the jumps that end edge stubs (the [Jump]s at or
          past {!Native.func}'s [stub_start]) *)
  eloops : int;                  (** [eloop]s executed *)
  lwl_extra : int;
      (** the [lwl_extra] weights of the [lwl]s executed: the loads a
          base-annotation build would annotate on top of this build's *)
}
(** The three annotation components split the profiling slowdown as in
    paper Figure 6. Annotations cost cycles only under [~tracing:true],
    so all three are 0 for an untraced run.

    The last three fields let one traced run of an optimized-annotation
    build stand for the two other builds of the same program. The plain
    build lacks the annotations and the stub jumps, so it takes
    [cycles - locals_cycles - read_stats_cycles - loop_anno_cycles -
    stub_cycles] cycles and prints the same [output]. The base build
    also annotates the [lwl_extra] loads and reads statistics after
    every [eloop]; [Jrpm.Pipeline] derives both. They are counted in
    the arms of [Jump], [Eloop] and [Lwl] only. *)

exception Out_of_fuel of int
(** {!Machine.Out_of_fuel}, re-exported. *)

val run :
  ?sink:Trace.sink ->
  ?tracing:bool ->
  ?fuel:int ->
  Native.program ->
  result
(** @param fuel maximum dynamic instructions (default 500 million);
    @raise Out_of_fuel if exceeded;
    @raise Machine.Trap on runtime errors (division by zero, negative
    address, negative allocation size, a value of the wrong kind as an
    address, size or operand). *)

(** {2 Hydra-internal}

    Hydra's one sequential executor and its ALU, which {!Tls_sim}
    builds on; nothing outside [lib/hydra] calls them. *)

type state = {
  mem : Machine.Memory.t;
  costs : int array array;
      (** [costs.(f).(pc)]: the cycles of instruction [pc] of function
          [f] (annotations cost 0 untraced) *)
  mutable cycles : int;
  mutable icount : int;          (** dynamic instructions, against [fuel] *)
  mutable output : Ir.Value.t list;  (** printed values, newest first *)
}
(** The machine state the sequential loop shares with a speculative
    region. The loop keeps [cycles] and [icount] in locals and stores
    them here only for the length of a [speculate] call, which advances
    them: one fuel budget covers both. *)

val exec :
  sink:Trace.sink ->
  tracing:bool ->
  fuel:int ->
  speculate:(state -> Native.stl_plan -> Machine.frame -> Machine.frame * int)
            option ->
  Native.program ->
  result
(** The loop of {!run}. At a [Tls_enter] whose plan belongs to the
    current function, [Some speculate] runs the region from the current
    frame and returns the frame and pc to continue at; any other
    [Tls_enter] is a no-op. [run] is [exec ~speculate:None]. *)

val exec_local : Machine.frame -> Native.instr -> unit
(** [exec_local fr ins] runs a frame-local instruction ([Const], [Mov],
    [Unop], [Binop], [Ld_local], [St_local]) on [fr]'s file.
    @raise Machine.Trap on an operand of the wrong kind or a zero
    divisor, with {!Machine.eval_binop}'s messages.
    @raise Invalid_argument on any other instruction. *)
