(** Natural-loop identification and the loop-nest tree (Muchnick-style, as
    the Jrpm compiler uses to enumerate potential speculative thread
    loops). Back edges sharing a header are merged into one loop. *)

type loop = {
  header : Ir.Tac.label;
  body : Ir.Tac.label list;        (** includes the header; sorted *)
  latches : Ir.Tac.label list;     (** sources of back edges *)
  exit_edges : (Ir.Tac.label * Ir.Tac.label) list;
      (** (in-loop block, out-of-loop successor) *)
  entry_edges : (Ir.Tac.label * Ir.Tac.label) list;
      (** (out-of-loop pred, header) — where the loop is entered *)
  depth : int;                     (** 1 = outermost in its function *)
  parent : int option;             (** index into the loop array *)
  children : int list;
}

type t = {
  graph : Cfgraph.t;
  doms : Dominators.t;
  loops : loop array;              (** outer loops before inner (sorted by depth) *)
}

val analyze : Ir.Tac.func -> t

val innermost_containing : t -> Ir.Tac.label -> int option
(** Index of the smallest loop whose body contains the block. *)

val in_loop : t -> int -> Ir.Tac.label -> bool

val max_depth : t -> int
(** Deepest static nesting in this function; 0 when loop-free. *)

val height : t -> int -> int
(** [height t i] — levels of loops strictly inside loop [i]; an innermost
    loop has height 0 (the paper's "height from the inner loop" counts an
    innermost loop as 1, see {!Core}'s reporting which adds 1). *)
