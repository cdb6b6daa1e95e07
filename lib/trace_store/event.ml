type t =
  | Sloop of { stl : int; nlocals : int; frame : int; now : int }
  | Eoi of { stl : int; now : int }
  | Eloop of { stl : int; now : int }
  | Read_stats of { stl : int; now : int }
  | Heap_load of { addr : int; pc : int; now : int }
  | Heap_store of { addr : int; now : int }
  | Local_load of { frame : int; slot : int; pc : int; now : int }
  | Local_store of { frame : int; slot : int; now : int }
  | Call of { callee : int; now : int }
  | Return of { now : int }

let apply (s : Hydra.Trace.sink) = function
  | Sloop { stl; nlocals; frame; now } -> s.Hydra.Trace.on_sloop ~stl ~nlocals ~frame ~now
  | Eoi { stl; now } -> s.Hydra.Trace.on_eoi ~stl ~now
  | Eloop { stl; now } -> s.Hydra.Trace.on_eloop ~stl ~now
  | Read_stats { stl; now } -> s.Hydra.Trace.on_read_stats ~stl ~now
  | Heap_load { addr; pc; now } -> s.Hydra.Trace.on_heap_load ~addr ~pc ~now
  | Heap_store { addr; now } -> s.Hydra.Trace.on_heap_store ~addr ~now
  | Local_load { frame; slot; pc; now } ->
      s.Hydra.Trace.on_local_load ~frame ~slot ~pc ~now
  | Local_store { frame; slot; now } ->
      s.Hydra.Trace.on_local_store ~frame ~slot ~now
  | Call { callee; now } -> s.Hydra.Trace.on_call ~callee ~now
  | Return { now } -> s.Hydra.Trace.on_return ~now

let handler f : Hydra.Trace.sink =
  {
    Hydra.Trace.on_sloop =
      (fun ~stl ~nlocals ~frame ~now -> f (Sloop { stl; nlocals; frame; now }));
    on_eoi = (fun ~stl ~now -> f (Eoi { stl; now }));
    on_eloop = (fun ~stl ~now -> f (Eloop { stl; now }));
    on_read_stats = (fun ~stl ~now -> f (Read_stats { stl; now }));
    on_heap_load = (fun ~addr ~pc ~now -> f (Heap_load { addr; pc; now }));
    on_heap_store = (fun ~addr ~now -> f (Heap_store { addr; now }));
    on_local_load =
      (fun ~frame ~slot ~pc ~now -> f (Local_load { frame; slot; pc; now }));
    on_local_store =
      (fun ~frame ~slot ~now -> f (Local_store { frame; slot; now }));
    on_call = (fun ~callee ~now -> f (Call { callee; now }));
    on_return = (fun ~now -> f (Return { now }));
  }

let collector () =
  let acc = ref [] in
  let sink = handler (fun e -> acc := e :: !acc) in
  (sink, fun () -> List.rev !acc)

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Sloop { stl; nlocals; frame; now } ->
      Format.fprintf ppf "sloop stl=%d nlocals=%d frame=%d @%d" stl nlocals frame now
  | Eoi { stl; now } -> Format.fprintf ppf "eoi stl=%d @%d" stl now
  | Eloop { stl; now } -> Format.fprintf ppf "eloop stl=%d @%d" stl now
  | Read_stats { stl; now } -> Format.fprintf ppf "read_stats stl=%d @%d" stl now
  | Heap_load { addr; pc; now } ->
      Format.fprintf ppf "heap_load addr=%d pc=%d @%d" addr pc now
  | Heap_store { addr; now } -> Format.fprintf ppf "heap_store addr=%d @%d" addr now
  | Local_load { frame; slot; pc; now } ->
      Format.fprintf ppf "local_load frame=%d slot=%d pc=%d @%d" frame slot pc now
  | Local_store { frame; slot; now } ->
      Format.fprintf ppf "local_store frame=%d slot=%d @%d" frame slot now
  | Call { callee; now } -> Format.fprintf ppf "call callee=%d @%d" callee now
  | Return { now } -> Format.fprintf ppf "return @%d" now
