(** Sequential execution of a native program on one Hydra CPU.

    [run] interprets the program from [main], counting cycles with the
    {!Cost} model. With [~tracing:true] the annotation instructions and
    all heap accesses are reported to [sink] (and the annotations cost
    their Table-4 overhead cycles); with [~tracing:false] annotations are
    free no-ops, modelling plain compiled code. TLS markers are always
    no-ops here. *)

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
