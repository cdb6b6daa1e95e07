(** Shared runtime machinery: the flat heap, call frames, and the
    evaluation of ALU / builtin operations on {!Ir.Value} values. Both the
    sequential interpreter and the TLS simulator build on this. *)

open Ir

exception Trap of string

exception Out_of_fuel of int
(** More dynamic instructions than the executor's [fuel]; the payload is
    the fuel. *)

(* Operand reads that must hold an int (addresses, sizes, integer ALU
   operands) or a float. A well-typed program holds a value of the wrong
   kind only after an out-of-bounds or misspeculated access, so it traps
   like any other runtime error. The executors make the same checks, with
   the same messages, on their unboxed register files. *)
let int_operand = function
  | Value.Int i -> i
  | Value.Float _ -> raise (Trap "float value used as an int")

let float_operand = function
  | Value.Float f -> f
  | Value.Int _ -> raise (Trap "int value used as a float")

module Memory = struct
  type t = {
    mutable cells : Value.t array;
    mutable brk : int; (* next free address *)
  }

  let create ~heap_base =
    { cells = Array.make (max 1024 (heap_base * 2)) Value.zero; brk = heap_base }

  let ensure t addr =
    if addr >= Array.length t.cells then begin
      let n = ref (Array.length t.cells) in
      while addr >= !n do
        n := !n * 2
      done;
      let cells = Array.make !n Value.zero in
      Array.blit t.cells 0 cells 0 (Array.length t.cells);
      t.cells <- cells
    end

  let load t addr =
    if addr < 0 then raise (Trap "negative heap address");
    if addr >= Array.length t.cells then Value.zero else t.cells.(addr)

  let store t addr v =
    if addr < 0 then raise (Trap "negative heap address");
    ensure t addr;
    t.cells.(addr) <- v

  (** Allocate [n] cells of element [kind] (initialized to the kind's
      zero); cell [base-1] holds the length. *)
  let alloc ?(kind = `Int) t n =
    if n < 0 then raise (Trap "negative allocation size");
    let hdr = t.brk in
    t.brk <- t.brk + n + 1;
    ensure t (t.brk - 1);
    t.cells.(hdr) <- Value.Int n;
    (match kind with
    | `Int -> ()
    | `Float ->
        for i = hdr + 1 to hdr + n do
          t.cells.(i) <- Value.Float 0.
        done);
    hdr + 1

end

(* A frame's registers and slots live in one flat tagged file: index
   [r] is register [r] and index [soff + s] is slot [s]. Entry [i] holds
   [Int ints.(i)] when [kinds.[i] = kind_int] and [Float floats.(i)]
   otherwise; the unused half is stale. The executors read and write the
   three arrays directly, so an ALU result is a plain store with no
   allocation and no write barrier, and a value is boxed into a
   [Value.t] only when it leaves the frame. *)
type frame = {
  fidx : int;
  ints : int array;
  floats : float array;
  kinds : Bytes.t;
  soff : int; (* index of slot 0: the function's register count *)
  ret_pc : int;
  ret_reg : Native.reg option;
  uid : int; (* unique frame id, for local-variable timestamps *)
}

let kind_int = '\000'
let kind_float = '\001'

(** A frame for [f] with every register and slot [Value.zero]. *)
let new_frame (f : Native.func) ~fidx ~ret_pc ~ret_reg ~uid =
  let n = f.Native.nregs + f.Native.nslots in
  {
    fidx;
    ints = Array.make n 0;
    floats = Array.make n 0.;
    kinds = Bytes.make n kind_int;
    soff = f.Native.nregs;
    ret_pc;
    ret_reg;
    uid;
  }

(* The register-file accessors, one set for both executors: the
   sequential loop and the TLS thread step run them on every
   instruction. Each is [@inline], with its trap out of line, so a use
   compiles to a kind test and an array access. *)

let[@inline never] not_int () = raise (Trap "float value used as an int")

let[@inline never] not_float () =
  raise (Trap "int value used as a float")

(** Entry [i] of [fr]'s file as an int (an address, a size or an ALU
    operand); traps on a float, as {!int_operand} does. *)
let[@inline] get_int (fr : frame) i =
  if Bytes.get fr.kinds i = kind_int then fr.ints.(i) else not_int ()

(** Entry [i] of [fr]'s file as a float; traps on an int, as
    {!float_operand} does. *)
let[@inline] get_float (fr : frame) i =
  if Bytes.get fr.kinds i = kind_int then not_float () else fr.floats.(i)

let[@inline] set_int (fr : frame) i n =
  fr.ints.(i) <- n;
  Bytes.set fr.kinds i kind_int

let[@inline] set_float (fr : frame) i x =
  fr.floats.(i) <- x;
  Bytes.set fr.kinds i kind_float

(** A comparison result: [1] or [0]. *)
let[@inline] set_bool fr i b = set_int fr i (if b then 1 else 0)

(** Is entry [i] of [fr]'s file non-zero (a taken branch)? *)
let[@inline] nonzero (fr : frame) i =
  if Bytes.get fr.kinds i = kind_int then fr.ints.(i) <> 0
  else fr.floats.(i) <> 0.

(** Entry [i] of [fr]'s file, boxed. *)
let[@inline] get (fr : frame) i : Value.t =
  if Bytes.get fr.kinds i = kind_int then Value.Int fr.ints.(i)
  else Value.Float fr.floats.(i)

let[@inline] set (fr : frame) i (v : Value.t) =
  match v with
  | Value.Int n -> set_int fr i n
  | Value.Float x -> set_float fr i x

(** Copy entry [src] of [from] to entry [dst] of [into]. *)
let[@inline] copy ~(from : frame) src ~(into : frame) dst =
  into.ints.(dst) <- from.ints.(src);
  into.floats.(dst) <- from.floats.(src);
  Bytes.set into.kinds dst (Bytes.get from.kinds src)

let rec pass_args_from caller callee i = function
  | [] -> ()
  | r :: args ->
      copy ~from:caller r ~into:callee (callee.soff + i);
      pass_args_from caller callee (i + 1) args

(** Call arguments: registers [args] of [caller] to the first slots of
    [callee]. *)
let pass_args ~caller ~callee args = pass_args_from caller callee 0 args

let eval_binop (op : Tac.binop) (a : Value.t) (b : Value.t) : Value.t =
  let open Value in
  let ii f = Int (f (int_operand a) (int_operand b)) in
  let ff f = Float (f (float_operand a) (float_operand b)) in
  let icmp f = Int (if f (compare (int_operand a) (int_operand b)) 0 then 1 else 0) in
  let fcmp f = Int (if f (compare (float_operand a) (float_operand b)) 0 then 1 else 0) in
  match op with
  | Tac.Add -> ii ( + )
  | Tac.Sub -> ii ( - )
  | Tac.Mul -> ii ( * )
  | Tac.Div ->
      if int_operand b = 0 then raise (Trap "integer division by zero") else ii ( / )
  | Tac.Rem ->
      if int_operand b = 0 then raise (Trap "integer remainder by zero") else ii Stdlib.( mod )
  | Tac.BAnd -> ii ( land )
  | Tac.BOr -> ii ( lor )
  | Tac.BXor -> ii ( lxor )
  | Tac.Shl -> ii ( lsl )
  | Tac.Shr -> ii ( asr )
  | Tac.Eq -> icmp ( = )
  | Tac.Ne -> icmp ( <> )
  | Tac.Lt -> icmp ( < )
  | Tac.Le -> icmp ( <= )
  | Tac.Gt -> icmp ( > )
  | Tac.Ge -> icmp ( >= )
  | Tac.FAdd -> ff ( +. )
  | Tac.FSub -> ff ( -. )
  | Tac.FMul -> ff ( *. )
  | Tac.FDiv -> ff ( /. )
  | Tac.FEq -> fcmp ( = )
  | Tac.FNe -> fcmp ( <> )
  | Tac.FLt -> fcmp ( < )
  | Tac.FLe -> fcmp ( <= )
  | Tac.FGt -> fcmp ( > )
  | Tac.FGe -> fcmp ( >= )

let eval_unop (op : Tac.unop) (a : Value.t) : Value.t =
  let open Value in
  match op with
  | Tac.Neg -> Int (-int_operand a)
  | Tac.FNeg -> Float (-.float_operand a)
  | Tac.LNot -> Int (if int_operand a = 0 then 1 else 0)
  | Tac.I2F -> Float (Float.of_int (int_operand a))
  | Tac.F2I -> Int (Float.to_int (float_operand a))

let eval_builtin (b : Tac.builtin) (args : Value.t list) : Value.t =
  let open Value in
  match (b, args) with
  | Tac.Sqrt, [ x ] -> Float (Float.sqrt (float_operand x))
  | Tac.Sin, [ x ] -> Float (Float.sin (float_operand x))
  | Tac.Cos, [ x ] -> Float (Float.cos (float_operand x))
  | Tac.Exp, [ x ] -> Float (Float.exp (float_operand x))
  | Tac.Log, [ x ] -> Float (Float.log (float_operand x))
  | Tac.FAbs, [ x ] -> Float (Float.abs (float_operand x))
  | Tac.Floor, [ x ] -> Float (Float.floor (float_operand x))
  | Tac.IAbs, [ x ] -> Int (abs (int_operand x))
  | Tac.IMin, [ x; y ] -> Int (min (int_operand x) (int_operand y))
  | Tac.IMax, [ x; y ] -> Int (max (int_operand x) (int_operand y))
  | Tac.FMin, [ x; y ] -> Float (Float.min (float_operand x) (float_operand y))
  | Tac.FMax, [ x; y ] -> Float (Float.max (float_operand x) (float_operand y))
  | _ -> raise (Trap "builtin arity mismatch")

(** Identity element for a privatized reduction accumulator. *)
let reduction_identity : Cfg.Scalar.reduction_op -> Value.t = function
  | Cfg.Scalar.RAdd -> Value.Int 0
  | Cfg.Scalar.RFAdd -> Value.Float 0.
  | Cfg.Scalar.RMin -> Value.Int max_int
  | Cfg.Scalar.RMax -> Value.Int min_int
  | Cfg.Scalar.RFMin -> Value.Float infinity
  | Cfg.Scalar.RFMax -> Value.Float neg_infinity

let reduction_merge (op : Cfg.Scalar.reduction_op) (a : Value.t) (b : Value.t) :
    Value.t =
  let open Value in
  match op with
  | Cfg.Scalar.RAdd -> Int (to_int a + to_int b)
  | Cfg.Scalar.RFAdd -> Float (to_float a +. to_float b)
  | Cfg.Scalar.RMin -> Int (min (to_int a) (to_int b))
  | Cfg.Scalar.RMax -> Int (max (to_int a) (to_int b))
  | Cfg.Scalar.RFMin -> Float (Float.min (to_float a) (to_float b))
  | Cfg.Scalar.RFMax -> Float (Float.max (to_float a) (to_float b))
