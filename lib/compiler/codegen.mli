(** Native-code generation — the microJIT stand-in.

    Three compilation modes, mirroring the Jrpm life cycle (paper Fig. 1):

    - {b Plain}: straight linearization, no annotations. Baseline
      sequential code (the denominator of the Fig. 6 slowdowns).
    - {b Annotated}: TEST annotation instructions inserted around every
      traced candidate STL — [sloop]/[eloop] on loop entry/exit edges,
      [eoi] on back edges, [lwl]/[swl] on named-local accesses inside
      traced loops, and read-statistics calls on loop exits. With
      [optimized = true] the two paper optimizations apply: only the
      first load of a local per basic block is annotated, and
      read-statistics calls are hoisted to the outermost loop of an
      only-child chain (paper Sec. 5.1).
    - {b Tls}: speculative thread code for the selected STLs — carried
      locals are globalized to reserved heap cells (loads/stores inside
      the loop body rewritten to heap accesses), inductor / reduction /
      invariant metadata is emitted as an {!Hydra.Native.stl_plan}, and
      TLS region markers are placed on loop entry / back / exit edges.

    Annotations and TLS markers on a control-flow edge go in a stub
    that ends in a jump to the edge's target; every function's stubs
    follow all its blocks, from {!Hydra.Native.func}'s [stub_start].
    An optimized annotated build also records, at each [lwl], how many
    later loads of the slot in its block the base build annotates
    ([lwl_extra]). The three builds of one program differ in nothing
    else, so one traced run of the optimized build gives the cycles of
    all three ({!Hydra.Seq_interp.result}). *)

type mode =
  | Plain
  | Annotated of { optimized : bool }
  | Tls of { selected : int list }  (** STL ids to recompile speculatively *)

val generate : mode:mode -> Stl_table.t -> Ir.Tac.program -> Hydra.Native.program

val compile_source : mode:mode -> string -> Hydra.Native.program * Stl_table.t
(** Convenience: parse + typecheck + lower + build STL table + generate. *)
