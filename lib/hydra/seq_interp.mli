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
}
(** The three annotation components split the profiling slowdown as in
    paper Figure 6. Annotations cost cycles only under [~tracing:true],
    so all three are 0 for an untraced run. *)

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
