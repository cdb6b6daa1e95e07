(** Instruction cycle costs of the Hydra CMP's single-issue pipeline.

    The absolute latencies below are a plain single-issue MIPS model; the
    paper's results depend on the ratios (thread sizes vs. TLS overheads
    vs. buffer limits), which these constants reproduce together with
    the machine geometry and TLS overheads in {!Config.default}. *)

(* ------------------------------------------------------------------ *)
(* Instruction latencies (cycles) for the single-issue pipeline.       *)

let cost_simple = 1            (* const / mov / int alu / compare / branch *)
let cost_mul = 3
let cost_div = 12
let cost_fsimple = 3           (* fadd / fsub / fmul / fneg / conversions *)
let cost_fdiv = 12
let cost_local = 1             (* register-file / stack-slot access *)
let cost_heap = 2              (* L1 hit *)
let cost_alloc = 20
let cost_call = 4
let cost_return = 2
let cost_builtin_math = 24     (* sqrt/sin/cos/exp/log *)
let cost_builtin_cheap = 2     (* abs/min/max/floor *)
let cost_print = 10

(* Annotation instruction overheads during TEST profiling (Sec. 5.1). *)
let cost_anno_local = 1        (* lwl / swl *)
let cost_anno_loop = 4         (* sloop / eloop *)
let cost_anno_eoi = 1
let cost_read_stats = 40       (* routine that reads the collected counters *)
