module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Interp = Bistpath_datapath.Interp
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Resource = Bistpath_bist.Resource
module Session = Bistpath_bist.Session
module Ipath = Bistpath_ipath.Ipath
module Listx = Bistpath_util.Listx
module Prng = Bistpath_util.Prng
module Diagnostic = Bistpath_resilience.Diagnostic
module Telemetry = Bistpath_telemetry.Telemetry

type mismatch = {
  vector : (string * int) list;
  output : string;
  expected : int;
  actual : int;
}

type report = {
  structural : string list;
  functional : mismatch option;
  vectors_run : int;
}

let sanitize = Verilog.sanitize

(* ------------------------------------------------------------------ *)
(* Elaboration of a parsed module                                     *)
(* ------------------------------------------------------------------ *)

(* The primitive vocabulary, named by the emitter *)
let reg_styles =
  List.map
    (fun s -> (Verilog.reg_module s, s))
    [ Resource.Normal; Resource.Tpg; Resource.Sa; Resource.Bilbo; Resource.Cbilbo ]

let unit_kinds = List.map (fun k -> (Verilog.unit_module k, k)) Op.all_kinds

let primitive_names = List.map fst reg_styles @ List.map fst unit_kinds

type driver =
  | Dassign of Parser.expr * int  (* right-hand side, source line *)
  | Dq of int  (* q of register instance i *)
  | Dsig of int  (* sig_out of register instance i *)
  | Dunit of int  (* y of unit instance i *)

type unit_inst = {
  uinst : string;
  ukind : Op.kind;
  uwidth : int;
  ua : Parser.expr;
  ub : Parser.expr;
}

type ecell = {
  estyle : Resource.style;
  einst : string;
  eparams : (string * int) list;
  econns : (string * Parser.expr) list;  (* input connections *)
}

type elab = {
  ename : string;
  ein : (string * int) list;
  eout : (string * int) list;
  esteps : int;
  stepvar : string;
  always_body : Parser.stmt;
  localparams : (string * int) list;
  widths : (string * int) list;
  drivers : (string, driver) Hashtbl.t;  (* every driver of a net, duplicates kept *)
  units : unit_inst array;
  ecells : ecell array;
  has_tm : bool;
  sess_bits : int option;
  problems : string list;  (* elaboration errors; [] = well-formed *)
  components : (string list * bool) list Lazy.t;  (* of [drivers]; see [components] *)
}

let binop_name : Parser.binop -> string = function
  | Parser.Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "udiv"
  | Mod -> "umod" | Band -> "and" | Bor -> "or" | Bxor -> "xor"
  | Land -> "land" | Lor -> "lor" | Eq -> "eq" | Neq -> "neq"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
  | Shl -> "shl" | Shr -> "shr"

let unop_name : Parser.unop -> string = function
  | Parser.Bnot -> "bnot" | Lnot -> "lnot" | Rxor -> "rxor" | Neg -> "neg"

let num_binop (op : Parser.binop) a b =
  match op with
  | Parser.Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Mod -> if b = 0 then 0 else a mod b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Land -> if a <> 0 && b <> 0 then 1 else 0
  | Lor -> if a <> 0 || b <> 0 then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Neq -> if a <> b then 1 else 0
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Shl -> a lsl min b 62
  | Shr -> a lsr min b 62

let num_unop (op : Parser.unop) a =
  match op with
  | Parser.Bnot -> lnot a
  | Lnot -> if a = 0 then 1 else 0
  | Rxor ->
    let rec parity acc v = if v = 0 then acc else parity (acc lxor (v land 1)) (v lsr 1) in
    parity 0 a
  | Neg -> -a

(* A node id of the structural store; [opaque] where no store is built *)
type value = VNum of int | VNode of int

let opaque = VNode (-1)

(* An expression compiled over a name resolution into a function of the
   slot. Numeric operands fold; anything touching an opaque atom becomes
   a node through [build]. Conditionals are lazy on numeric conditions,
   which is what makes the emitted division guard safe to evaluate.
   Operands run in a fixed order — left to right, but a conditional's
   false leg before its true leg — because the order decides where a
   combinational loop is cut (equiv_verdicts.txt pins it). *)
let compile_sym ?(numeric = fun _ -> false) ~resolve ~undriven ~build () =
  (* whether an expression folds to a number in every slot: it reads
     only names [numeric] accepts, through operators that fold *)
  let rec folds (x : Parser.expr) =
    match x with
    | Parser.Ident n -> numeric n
    | Parser.Num _ -> true
    | Parser.Unop (_, a) -> folds a
    | Parser.Binop (_, a, b) | Parser.Index (a, b) -> folds a && folds b
    | Parser.Cond (c, t, f) -> folds c && folds t && folds f
    | Parser.Concat es -> List.for_all (function Parser.Num (Some _, _) -> true | _ -> false) es
    | Parser.Str _ | Parser.Repl _ | Parser.Range _ -> false
  in
  let rec go (x : Parser.expr) : int -> value =
    match x with
    | Parser.Ident n -> resolve n
    | Parser.Num (_, v) ->
      let v = VNum v in
      fun _ -> v
    | Parser.Str _ -> fun _ -> undriven
    | Parser.Unop (op, a) ->
      let a = go a and name = unop_name op in
      fun i -> ( match a i with VNum v -> VNum (num_unop op v) | va -> build name [| va |])
    (* a right operand that folds cannot change a decided logical
       operator, so it is not evaluated *)
    | Parser.Binop (((Parser.Land | Parser.Lor) as op), a, b) when folds b -> (
      let a = go a and b = go b in
      fun i ->
        match (op, a i) with
        | Parser.Land, VNum 0 -> VNum 0
        | Parser.Lor, VNum x when x <> 0 -> VNum 1
        | _, va -> (
          match (va, b i) with
          | VNum x, VNum y -> VNum (num_binop op x y)
          | va, vb -> build (binop_name op) [| va; vb |]))
    | Parser.Binop (op, a, b) ->
      let a = go a and b = go b and name = binop_name op in
      fun i ->
        let va = a i in
        let vb = b i in
        ( match (va, vb) with
        | VNum x, VNum y -> VNum (num_binop op x y)
        | _ -> build name [| va; vb |])
    | Parser.Cond (c, t, f) -> (
      let c = go c and t = go t and f = go f in
      fun i ->
        match c i with
        | VNum 0 -> f i
        | VNum _ -> t i
        | vc ->
          let vf = f i in
          let vt = t i in
          build "cond" [| vc; vt; vf |])
    | Parser.Concat es ->
      let sized = List.filter_map (function Parser.Num (Some w, v) -> Some (w, v) | _ -> None) es in
      if List.length sized = List.length es then
        let v = List.fold_left (fun acc (w, v) -> (acc lsl w) lor v) 0 sized in
        fun _ -> VNum v
      else
        let parts = List.map go es in
        fun i -> build "concat" (Array.of_list (List.map (fun p -> p i) parts))
    | Parser.Repl (c, e) -> (
      let c = go c and ge = go e in
      fun i ->
        match (c i, e) with
        | VNum n, Parser.Num (Some w, v) when n >= 0 && n * w <= 62 ->
          let rec rep acc k = if k = 0 then acc else rep ((acc lsl w) lor v) (k - 1) in
          VNum (rep 0 n)
        | vc, _ -> build "repl" [| vc; ge i |])
    | Parser.Index (e, ix) -> (
      let e = go e and ix = go ix in
      fun i ->
        let ve = e i in
        let vi = ix i in
        match (ve, vi) with
        | VNum v, VNum k -> VNum ((v lsr max k 0) land 1)
        | _ -> build "index" [| ve; vi |])
    | Parser.Range (e, m, l) -> (
      let e = go e and m = go m and l = go l in
      fun i ->
        let ve = e i in
        let vm = m i in
        let vl = l i in
        match (ve, vm, vl) with
        | VNum v, VNum m, VNum l when m >= l ->
          VNum ((v lsr l) land ((1 lsl min (m - l + 1) 62) - 1))
        | _ -> build "range" [| ve; vm; vl |])
  in
  go

(* An expression's value if it folds to a number under [lookup] *)
let eval_num lookup e =
  let resolve n = match lookup n with Some v -> fun _ -> VNum v | None -> fun _ -> opaque in
  match compile_sym ~resolve ~undriven:opaque ~build:(fun _ _ -> opaque) () e 0 with
  | VNum n -> Some n
  | VNode _ -> None

let const_eval localparams e = eval_num (fun n -> List.assoc_opt n localparams) e

(* Statement execution over numeric state: returns the nonblocking
   assignments the body performs, or None if control flow depends on
   something non-numeric (which the emitted step counter never does). *)
let exec_stmts lookup body =
  let exception Symbolic in
  let rec exec acc (s : Parser.stmt) =
    match s with
    | Parser.Block ss -> List.fold_left exec acc ss
    | Parser.Nop -> acc
    | Parser.If (c, t, f) -> (
      match eval_num lookup c with
      | Some 0 -> ( match f with Some f -> exec acc f | None -> acc)
      | Some _ -> exec acc t
      | None -> raise Symbolic)
    | Parser.Case (scrut, arms, dflt) -> (
      match eval_num lookup scrut with
      | None -> raise Symbolic
      | Some v -> (
        let arm =
          List.find_opt
            (fun (labels, _) ->
              List.exists
                (fun l ->
                  eval_num lookup l = Some v)
                labels)
            arms
        in
        match (arm, dflt) with
        | Some (_, s), _ -> exec acc s
        | None, Some d -> exec acc d
        | None, None -> acc))
    | Parser.Nonblocking (n, e) | Parser.Blocking (n, e) -> (
      match eval_num lookup e with
      | Some v -> (n, v) :: List.remove_assoc n acc
      | None -> raise Symbolic)
    | Parser.Sys _ -> acc
    | Parser.Timing _ -> raise Symbolic
  in
  try Some (exec [] body) with Symbolic -> None

let rec stmt_targets acc (s : Parser.stmt) =
  match s with
  | Parser.Block ss -> List.fold_left stmt_targets acc ss
  | Parser.If (_, t, f) -> (
    let acc = stmt_targets acc t in
    match f with Some f -> stmt_targets acc f | None -> acc)
  | Parser.Case (_, arms, dflt) -> (
    let acc = List.fold_left (fun acc (_, s) -> stmt_targets acc s) acc arms in
    match dflt with Some d -> stmt_targets acc d | None -> acc)
  | Parser.Nonblocking (n, _) | Parser.Blocking (n, _) ->
    if List.mem n acc then acc else n :: acc
  | Parser.Timing (Some s) -> stmt_targets acc s
  | Parser.Sys _ | Parser.Timing None | Parser.Nop -> acc

let pick_datapath (p : Parser.t) =
  let candidates =
    List.filter
      (fun (m : Parser.module_) -> not (List.mem m.Parser.name primitive_names))
      p.Parser.modules
  in
  match candidates with
  | [ m ] -> Ok m
  | [] -> Error [ "no datapath module found in the RTL input" ]
  | ms -> (
    match
      List.filter
        (fun (m : Parser.module_) ->
          String.length m.Parser.name >= 9
          && String.ends_with ~suffix:"_datapath" m.Parser.name)
        ms
    with
    | [ m ] -> Ok m
    | _ ->
      Error
        [
          Printf.sprintf "ambiguous datapath module: candidates %s"
            (String.concat ", " (List.map (fun (m : Parser.module_) -> m.Parser.name) ms));
        ])

(* Identifiers an expression reads, each with the width it is read at:
   [w] in data position (the whole value or a conditional's leg), [None]
   under operators, conditions and selects. *)
let rec reads w acc (x : Parser.expr) =
  match x with
  | Parser.Ident n -> (n, w) :: acc
  | Parser.Cond (c, t, f) -> reads w (reads w (reads None acc c) t) f
  | Parser.Num _ | Parser.Str _ -> acc
  | Parser.Unop (_, a) -> reads None acc a
  | Parser.Binop (_, a, b) | Parser.Repl (a, b) | Parser.Index (a, b) ->
    reads None (reads None acc a) b
  | Parser.Range (a, m, l) -> reads None (reads None (reads None acc a) m) l
  | Parser.Concat xs -> List.fold_left (reads None) acc xs

(* Strongly connected components (Tarjan) of the combinational
   dependency graph, each net pointing at the nets its driver reads,
   with each component's cyclicity; dependencies come first, which is
   the order the simulator settles nets in. Computed once per
   elaboration ([elab.components]). *)
let components drivers (units : unit_inst array) =
  let deps = Hashtbl.create 64 in
  (* a net depends on what its driver reads; register outputs on nothing *)
  Hashtbl.iter
    (fun n d ->
      let srcs =
        match d with
        | Dassign (x, _) -> reads None [] x
        | Dunit j -> reads None (reads None [] units.(j).ua) units.(j).ub
        | Dq _ | Dsig _ -> []
      in
      Hashtbl.replace deps n (List.map fst srcs @ try Hashtbl.find deps n with Not_found -> []))
    drivers;
  let succ n = try List.sort_uniq compare (Hashtbl.find deps n) with Not_found -> [] in
  let nodes =
    List.sort_uniq compare (Hashtbl.fold (fun n ds acc -> (n :: ds) @ acc) deps [])
  in
  let index = Hashtbl.create 64 and low = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succ v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      let cyclic = match comp with [ x ] -> List.mem x (succ x) | _ -> true in
      out := (comp, cyclic) :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  List.rev !out

(* Total: a malformed module still yields its netlist (the rules audit
   it), with every problem recorded in [problems]. *)
let elaborate (m : Parser.module_) : elab =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let localparams = ref [] in
  let widths = ref [] in
  let regs_declared = ref [] in
  let drivers : (string, driver) Hashtbl.t = Hashtbl.create 64 in
  let set_driver name d =
    if Hashtbl.mem drivers name then err "multiple drivers for %s" name;
    Hashtbl.add drivers name d
  in
  let width_of_range = function
    | None -> Some 1
    | Some (m, l) -> (
      match (const_eval !localparams m, const_eval !localparams l) with
      | Some m, Some l when m >= l -> Some (m - l + 1)
      | _ -> None)
  in
  let ports_in = ref [] and ports_out = ref [] in
  List.iter
    (fun (p : Parser.port) ->
      match width_of_range p.Parser.prange with
      | None -> err "port %s: non-constant range" p.Parser.pname
      | Some w ->
        widths := (p.Parser.pname, w) :: !widths;
        if p.Parser.dir = Parser.Input then
          ports_in := (p.Parser.pname, w) :: !ports_in
        else ports_out := (p.Parser.pname, w) :: !ports_out)
    m.Parser.ports;
  let cells = ref [] and units = ref [] in
  let ncells = ref 0 and nunits = ref 0 in
  let always = ref [] in
  List.iter
    (fun (item : Parser.item) ->
      match item with
      | Parser.Decl { dreg; drange; names; dline } ->
        let w = match width_of_range drange with Some w -> w | None -> 1 in
        List.iter
          (fun (n, init) ->
            widths := (n, w) :: !widths;
            if dreg then begin
              regs_declared := n :: !regs_declared;
              if init <> None then err "unsupported reg initializer on %s" n
            end
            else
              (* `wire x = e;` is declaration plus continuous assign *)
              match init with
              | Some e -> set_driver n (Dassign (e, dline))
              | None -> ())
          names
      | Parser.Assign { lhs; rhs; aline } -> set_driver lhs (Dassign (rhs, aline))
      | Parser.Localparam { name; value; _ } -> (
        match const_eval !localparams value with
        | Some v -> localparams := (name, v) :: !localparams
        | None -> err "localparam %s: non-constant value" name)
      | Parser.Always { trigger; body; _ } -> always := (trigger, body) :: !always
      | Parser.Initial _ -> err "unsupported initial block in datapath module"
      | Parser.Instance { module_name; params; instance_name; conns; _ } ->
        let eparams =
          List.filter_map
            (fun (p, e) ->
              match const_eval !localparams e with
              | Some v -> Some (p, v)
              | None ->
                err "instance %s: non-constant parameter %s" instance_name p;
                None)
            params
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        match List.assoc_opt module_name reg_styles with
        | Some estyle ->
          let i = !ncells in
          incr ncells;
          let inputs =
            List.filter
              (fun (port, conn) ->
                match port with
                | "q" | "sig_out" -> (
                  match conn with
                  | Parser.Ident w ->
                    set_driver w (if port = "q" then Dq i else Dsig i);
                    false
                  | _ ->
                    err "instance %s: output port %s must connect a plain wire"
                      instance_name port;
                    false)
                | _ -> true)
              conns
          in
          cells :=
            {
              estyle;
              einst = instance_name;
              eparams;
              econns = List.sort (fun (a, _) (b, _) -> compare a b) inputs;
            }
            :: !cells
        | None -> (
          match List.assoc_opt module_name unit_kinds with
          | Some ukind ->
            let j = !nunits in
            incr nunits;
            let get p = List.assoc_opt p conns in
            (match get "y" with
            | Some (Parser.Ident w) -> set_driver w (Dunit j)
            | Some _ | None -> err "instance %s: missing wire on port y" instance_name);
            let arg p =
              match get p with
              | Some e -> e
              | None ->
                err "instance %s: missing port %s" instance_name p;
                Parser.Num (None, 0)
            in
            let uwidth =
              match List.assoc_opt "WIDTH" eparams with Some w -> w | None -> 8
            in
            units :=
              { uinst = instance_name; ukind; uwidth; ua = arg "a"; ub = arg "b" }
              :: !units
          | None -> err "unknown instance module %s (%s)" module_name instance_name))
    m.Parser.items;
  (* step counter: exactly one posedge always block driving one reg *)
  let stepvar, body =
    match !always with
    | [ (Parser.Posedge clk, body) ] ->
      if clk <> "clk" then err "always block not clocked by clk";
      (match stmt_targets [] body with
      | [ v ] ->
        if not (List.mem v !regs_declared) then
          err "step counter %s is not a declared reg" v;
        (v, body)
      | vs ->
        err "expected exactly one always-block register, found %d" (List.length vs);
        ("step", body))
    | [] ->
      err "no always block (step counter) found";
      ("step", Parser.Nop)
    | (Parser.Delay _, _) :: _ | (Parser.Star, _) :: _ ->
      err "unsupported always trigger in datapath module";
      ("step", Parser.Nop)
    | _ :: _ :: _ ->
      err "expected exactly one always block, found %d" (List.length !always);
      ("step", Parser.Nop)
  in
  let esteps =
    match List.assoc_opt "NUM_STEPS" !localparams with
    | Some n -> n
    | None ->
      err "missing NUM_STEPS localparam";
      0
  in
  (* verify the counter's update rule: rst forces 0, otherwise count to
     saturation at NUM_STEPS + 1 *)
  if !errs = [] then begin
    let check rst s expect =
      let lookup n =
        if n = stepvar then Some s
        else if n = "rst" then Some rst
        else List.assoc_opt n !localparams
      in
      let got =
        match exec_stmts lookup body with
        | None -> None
        | Some [] -> Some s  (* no assignment: holds value *)
        | Some [ (v, x) ] when v = stepvar -> Some x
        | Some _ -> None
      in
      if got <> Some expect then
        err "step counter diverges at rst=%d step=%d (expected %d)" rst s expect
    in
    for s = 0 to esteps + 1 do
      check 1 s 0;
      check 0 s (if s <= esteps then s + 1 else s)
    done
  end;
  let ein = List.sort (fun (a, _) (b, _) -> compare a b) !ports_in in
  let units = Array.of_list (List.rev !units) in
  {
    ename = m.Parser.name;
    ein;
    eout = List.sort (fun (a, _) (b, _) -> compare a b) !ports_out;
    esteps;
    stepvar;
    always_body = body;
    localparams = !localparams;
    widths = !widths;
    drivers;
    units;
    ecells = Array.of_list (List.rev !cells);
    has_tm = List.mem_assoc "test_mode" ein;
    sess_bits = List.assoc_opt "test_session" ein;
    problems = List.rev !errs;
    components = lazy (components drivers units);
  }

(* ------------------------------------------------------------------ *)
(* Connectivity of an elaborated module                               *)
(* ------------------------------------------------------------------ *)

type endpoint = { cell : string; width : int option }

type net = {
  net : string;
  port : bool;
  declared : int option;
  drivers : endpoint list;
  readers : endpoint list;
}

let cell_width (c : ecell) =
  match List.assoc_opt "WIDTH" c.eparams with Some w -> w | None -> 8

let nets (e : elab) =
  let tbl = Hashtbl.create 64 in
  let add ~driver cell (n, width) =
    if not (List.mem_assoc n e.localparams) then begin
      let ds, rs = try Hashtbl.find tbl n with Not_found -> ([], []) in
      let ep = { cell; width } in
      Hashtbl.replace tbl n (if driver then (ep :: ds, rs) else (ds, ep :: rs))
    end
  in
  let declared n = List.assoc_opt n e.widths in
  List.iter (fun (p, w) -> add ~driver:true "input" (p, Some w)) e.ein;
  List.iter (fun (p, w) -> add ~driver:false "output" (p, Some w)) e.eout;
  Hashtbl.iter
    (fun n d ->
      match d with
      | Dassign (x, line) ->
        let cell = Printf.sprintf "assign@%d" line in
        add ~driver:true cell (n, declared n);
        List.iter (add ~driver:false cell) (reads (declared n) [] x)
      | Dq i | Dsig i ->
        add ~driver:true e.ecells.(i).einst (n, Some (cell_width e.ecells.(i)))
      | Dunit j ->
        let u = e.units.(j) and w = Some e.units.(j).uwidth in
        add ~driver:true u.uinst (n, w);
        List.iter (add ~driver:false u.uinst) (reads w (reads w [] u.ua) u.ub))
    e.drivers;
  Array.iter
    (fun c ->
      List.iter
        (fun (port, x) ->
          let w = if port = "d" then cell_width c else 1 in
          List.iter (add ~driver:false c.einst) (reads (Some w) [] x))
        c.econns)
    e.ecells;
  (* the step counter (its semantics proved by elaboration) *)
  if e.always_body <> Parser.Nop then begin
    add ~driver:true "always" (e.stepvar, declared e.stepvar);
    List.iter (fun n -> add ~driver:false "always" (n, None)) [ "clk"; "rst"; e.stepvar ]
  end;
  Hashtbl.fold
    (fun n (ds, rs) acc ->
      {
        net = n;
        port = List.mem_assoc n e.ein || List.mem_assoc n e.eout;
        declared = declared n;
        drivers = List.sort compare ds;
        readers = List.sort compare rs;
      }
      :: acc)
    tbl []
  |> List.sort compare

let comb_cycles e =
  List.filter_map
    (fun (comp, cyclic) -> if cyclic then Some (List.sort compare comp) else None)
    (Lazy.force e.components)
  |> List.sort compare

(* --- symbolic evaluation of an elaborated module ------------------- *)

(* Every net's value per slot, as a node of [st]. A net is evaluated
   once per class of slots that agree on what the evaluation read of the
   step counter, test_mode and test_session, itself or through other
   nets: the first evaluation in a class records what it read, and every
   slot of that class reuses its value.

   A net on a combinational loop reads undriven at its back edge, and
   which net gets cut depends on where evaluation entered the loop,
   which a step-selected mux can move from slot to slot. So a net in a
   cyclic component of the dependency graph, and every net that reads
   one, is evaluated per slot, in the order the cells and ports ask for
   it, and never shares a value across slots. *)
let netlist st (e : elab) =
  let g = Netlist.grid ~has_tm:e.has_tm ~sess_bits:e.sess_bits ~steps:e.esteps in
  let base = Netlist.reserve st (Array.length e.ecells) in
  let undriven = VNode (Netlist.undriven st) in
  let node = function VNum n -> Netlist.const st n | VNode t -> t in
  let build o vs = VNode (Netlist.op st o (Array.map node vs)) in
  let wire_of = Hashtbl.create 64 in
  Hashtbl.iter
    (fun n _ -> if not (Hashtbl.mem wire_of n) then Hashtbl.add wire_of n (Hashtbl.length wire_of))
    e.drivers;
  let nw = Hashtbl.length wire_of in
  (* names resolve as the driver table is read: the counter, controls
     and localparams before nets; other names are pins or undriven *)
  let control n =
    n = e.stepvar || n = "rst" || n = "test_mode" || n = "test_session"
    || List.mem_assoc n e.localparams
  in
  (* dependencies come first *)
  let looped = Array.make nw false in
  let reads_loop x =
    List.exists
      (fun (n, _) ->
        (not (control n))
        && match Hashtbl.find_opt wire_of n with Some w -> looped.(w) | None -> false)
      (reads None [] x)
  in
  List.iter
    (fun (comp, cyclic) ->
      List.iter
        (fun n ->
          Option.iter
            (fun w ->
              looped.(w) <-
                cyclic
                ||
                match Hashtbl.find e.drivers n with
                | Dassign (x, _) -> reads_loop x
                | Dunit j -> reads_loop e.units.(j).ua || reads_loop e.units.(j).ub
                | Dq _ | Dsig _ -> false)
            (Hashtbl.find_opt wire_of n))
        comp)
    (Lazy.force e.components);
  let n = Netlist.slot_count g in
  (* a looped net: its value per slot, [Busy] while being evaluated *)
  let per_slot = Array.map (fun l -> if l then Array.make n `Unset else [||]) looped in
  (* any other net: (what it read, its value per class of that) *)
  let shared = Array.make nw [] in
  let read = ref 0 in
  let compute = Array.make nw (fun _ -> undriven) in
  let wire w i =
    if looped.(w) then (
      match per_slot.(w).(i) with
      | `Done v -> v
      | `Busy -> undriven
      | `Unset ->
        per_slot.(w).(i) <- `Busy;
        let v = compute.(w) i in
        per_slot.(w).(i) <- `Done v;
        v)
    else
      let rec find = function
        | [] -> None
        | (m, values) :: rest -> (
          match values.(Netlist.class_of g m i) with
          | Some v ->
            read := !read lor m;
            Some v
          | None -> find rest)
      in
      match find shared.(w) with
      | Some v -> v
      | None ->
        let outer = !read in
        read := 0;
        let v = compute.(w) i in
        let m = !read in
        let values =
          match List.assq_opt m shared.(w) with
          | Some values -> values
          | None ->
            let values = Array.make (Netlist.classes g m) None in
            shared.(w) <- (m, values) :: shared.(w);
            values
        in
        values.(Netlist.class_of g m i) <- Some v;
        read := outer lor m;
        v
  in
  let reading bit f i =
    read := !read lor bit;
    VNum (f g i)
  in
  let resolve n =
    if n = e.stepvar then reading Netlist.reads_step Netlist.step_of
    else if n = "rst" then fun _ -> VNum 0
    else if n = "test_mode" then reading Netlist.reads_tm Netlist.tm_of
    else if n = "test_session" then reading Netlist.reads_session Netlist.session_of
    else
      match List.assoc_opt n e.localparams with
      | Some v -> fun _ -> VNum v
      | None -> (
        match Hashtbl.find_opt wire_of n with
        | Some w -> wire w
        | None ->
          if List.mem_assoc n e.ein then
            let p = lazy (VNode (Netlist.pin st n)) in
            fun _ -> Lazy.force p
          else fun _ -> undriven)
  in
  let sym = compile_sym ~numeric:control ~resolve ~undriven ~build () in
  Hashtbl.iter
    (fun n w ->
      compute.(w) <-
        (match Hashtbl.find e.drivers n with
        | Dassign (x, _) -> sym x
        | Dq i ->
          let v = VNode (Netlist.reg_q st (base + i)) in
          fun _ -> v
        | Dsig i ->
          let v = VNode (Netlist.reg_sig st (base + i)) in
          fun _ -> v
        | Dunit j ->
          let u = e.units.(j) in
          let a = sym u.ua and b = sym u.ub and name = Netlist.op_name u.ukind in
          fun i ->
            (* operand b first, like a conditional's legs *)
            let vb = b i in
            let va = a i in
            build name [| va; vb |]))
    wire_of;
  (* a port reading a looped net asks for it in every slot, in order *)
  let per x =
    let f = sym x and looped = reads_loop x in
    Netlist.per_slot g (fun i ->
        read := 0;
        let v = node (f i) in
        ((if looped then Netlist.reads_all else !read), v))
  in
  let cells =
    Array.map
      (fun (c : ecell) ->
        {
          Netlist.kind = Verilog.reg_module c.estyle;
          cname = c.einst;
          params = c.eparams;
          conns = List.map (fun (port, x) -> (port, per x)) c.econns;
        })
      e.ecells
  in
  let outdrv = List.map (fun (port, _) -> (port, per (Parser.Ident port))) e.eout in
  {
    Netlist.nname = e.ename;
    nin = e.ein;
    nout = e.eout;
    nsteps = e.esteps;
    ncontexts = Netlist.contexts g;
    base;
    cells;
    outdrv;
  }

(* ------------------------------------------------------------------ *)
(* Cycle simulation of an elaborated module                           *)
(* ------------------------------------------------------------------ *)

let mask w = (1 lsl min w 62) - 1

(* The register primitives' generator/compactor update: feedback is the
   shifted-out MSB xor the parity of (q & 4'b1011), shifted in at the
   LSB; a compactor XORs its data input in. Neither invertible nor
   maximal-length: at W = 4, 4'b1000 steps to all-zero and seed 1 enters
   a 3-cycle after 2 steps (see the LFSR item in ROADMAP.md). *)
let lfsr ~width q =
  let fb = ((q lsr (width - 1)) lxor q lxor (q lsr 1) lxor (q lsr 3)) land 1 in
  ((q lsl 1) lor fb) land mask width

let misr ~width q d = lfsr ~width q lxor d

let expr_width (e : elab) (x : Parser.expr) =
  match x with
  | Parser.Num (Some w, _) -> Some w
  | Parser.Ident n -> List.assoc_opt n e.widths
  | Parser.Binop ((Eq | Neq | Lt | Le | Gt | Ge | Land | Lor), _, _) -> Some 1
  | _ -> None

(* An expression as a closure over the settled net values; [net]
   resolves the identifiers that are not localparams. *)
let compile (e : elab) net =
  let rec go (x : Parser.expr) : int array -> int =
    match x with
    | Parser.Ident n -> (
      match List.assoc_opt n e.localparams with Some c -> fun _ -> c | None -> net n)
    | Parser.Num (_, c) -> fun _ -> c
    | Parser.Unop (op, a) ->
      let a = go a in
      fun v -> num_unop op (a v)
    | Parser.Binop (op, a, b) ->
      let a = go a and b = go b in
      fun v -> num_binop op (a v) (b v)
    | Parser.Cond (c, t, f) ->
      let c = go c and t = go t and f = go f in
      fun v -> if c v <> 0 then t v else f v
    | Parser.Concat (first :: rest)
      when not (List.mem None (List.map (expr_width e) rest)) ->
      List.fold_left
        (fun acc x ->
          let w = Option.get (expr_width e x) and x = go x in
          fun v -> (acc v lsl w) lor (x v land mask w))
        (go first) rest
    | Parser.Index (a, i) ->
      let a = go a and i = go i in
      fun v -> (a v lsr max (i v) 0) land 1
    | Parser.Range (a, m, l) ->
      let a = go a and m = go m and l = go l in
      fun v ->
        let m = m v and l = l v in
        if m >= l then (a v lsr l) land mask (m - l + 1) else 0
    | Parser.Str _ | Parser.Concat _ | Parser.Repl _ ->
      (* the emitted replications are constants *)
      let c = Option.value (const_eval e.localparams x) ~default:0 in
      fun _ -> c
  in
  go

type machine = {
  settle : unit -> unit;  (* recompute every net from the current state *)
  clock : unit -> unit;  (* one posedge: latch the registers, count a step *)
  read : string -> int;  (* a driven net's value as of the last [settle] *)
  pin : string -> int -> unit;  (* [pin n] sets input net [n]; others: ignored *)
  reset : unit -> unit;  (* back to the state [machine] returned *)
}

(* A well-formed elaborated module as a cycle simulator, compiled once:
   registers start from reset (SEED for generators, 0 otherwise), [rst]
   stays low, [test_mode]/[test_session] are held at [tm]/[sess], and
   every other undriven net is an input pin, kept in the same slot array
   as the settled nets (0 until set). The register primitives follow
   their Verilog semantics in both modes. [reset] restores the
   registers, the CBILBO signatures and the step counter and zeroes
   every net, pins included: a combinational loop reads its nets before
   settling them, so a stale value would leak into the next run.
   [faulty] replaces the function of the named unit instance. *)
let machine ?faulty (e : elab) ~tm ~sess =
  let step = ref 0 in
  let seeds =
    Array.map
      (fun (c : ecell) ->
        match c.estyle with
        | Resource.Tpg | Resource.Bilbo | Resource.Cbilbo ->
          Option.value (List.assoc_opt "SEED" c.eparams) ~default:1 land mask (cell_width c)
        | Resource.Normal | Resource.Sa -> 0)
      e.ecells
  in
  let ncells = Array.length seeds in
  let q = Array.copy seeds and sg = Array.make ncells 0 in
  let index = Hashtbl.create 64 and pins = Hashtbl.create 16 in
  let slots = ref 0 in
  let slot tbl n =
    match Hashtbl.find_opt tbl n with
    | Some i -> i
    | None ->
      let i = !slots in
      incr slots;
      Hashtbl.replace tbl n i;
      i
  in
  (* driven nets are settled into slots; undriven ones are the inputs *)
  let net n =
    if Hashtbl.mem e.drivers n then begin
      let i = slot index n in
      fun v -> v.(i)
    end
    else if n = e.stepvar then fun _ -> !step
    else
      match n with
      | "test_mode" -> fun _ -> tm
      | "test_session" -> fun _ -> sess
      | _ ->
        let i = slot pins n in
        fun v -> v.(i)
  in
  let compile = compile e net in
  let value = function
    | Dassign (x, _) -> compile x
    | Dq i -> fun _ -> q.(i)
    | Dsig i when e.ecells.(i).estyle = Resource.Cbilbo -> fun _ -> sg.(i)
    | Dsig i -> fun _ -> q.(i)
    | Dunit j ->
      let u = e.units.(j) in
      let a = compile u.ua and b = compile u.ub in
      let f =
        match faulty with
        | Some (inst, f) when inst = u.uinst -> f ~width:u.uwidth
        | Some _ | None -> Op.eval u.ukind ~width:u.uwidth
      in
      fun v -> f (a v) (b v)
  in
  let components = Lazy.force e.components in
  let evals =
    List.concat_map (fun (comp, _) -> List.filter (Hashtbl.mem e.drivers) comp) components
    |> List.map (fun n ->
           let w = Option.value (List.assoc_opt n e.widths) ~default:62 in
           (slot index n, mask w, value (Hashtbl.find e.drivers n)))
    |> Array.of_list
  in
  let conn port =
    Array.map
      (fun (c : ecell) ->
        match List.assoc_opt port c.econns with Some x -> compile x | None -> fun _ -> 0)
      e.ecells
  in
  let en = conn "en" and d = conn "d" in
  let testing = conn "test_mode" and compact = conn "compact" in
  let v = Array.make !slots 0 in
  (* Without a combinational loop settling is idempotent: a settle with
     no clock, pin or reset since the last one would recompute the same
     values, so it is skipped. A loop reads its nets before settling
     them, so there every settle runs. *)
  let loop = List.exists snd components in
  let settled = ref false in
  let settle () =
    if loop || not !settled then begin
      Array.iter (fun (i, m, f) -> v.(i) <- f v land m) evals;
      settled := true
    end
  in
  (* every cell's next state goes to [q'] and [sg'] before any latches,
     so each register reads the pre-edge state *)
  let q' = Array.make ncells 0 and sg' = Array.make ncells 0 in
  let latch =
    Array.mapi
      (fun i (c : ecell) ->
        let width = cell_width c in
        let en = en.(i) and d = d.(i) and testing = testing.(i) and compact = compact.(i) in
        let d v = d v land mask width in
        let normal v =
          q'.(i) <- (if en v <> 0 then d v else q.(i));
          sg'.(i) <- sg.(i)
        in
        (* in test mode: the next q, and the next signature *)
        let test next_q next_sg v =
          if testing v = 0 then normal v
          else begin
            q'.(i) <- next_q v;
            sg'.(i) <- next_sg v
          end
        in
        let gen _ = lfsr ~width q.(i) and keep _ = sg.(i) in
        match c.estyle with
        | Resource.Tpg -> test gen keep
        | Resource.Sa -> test (fun v -> misr ~width q.(i) (d v)) keep
        | Resource.Bilbo ->
          test (fun v -> if compact v <> 0 then misr ~width q.(i) (d v) else gen v) keep
        | Resource.Cbilbo -> test gen (fun v -> misr ~width sg.(i) (d v))
        | Resource.Normal -> normal)
      e.ecells
  in
  let clock () =
    Array.iter (fun f -> f v) latch;
    Array.blit q' 0 q 0 ncells;
    Array.blit sg' 0 sg 0 ncells;
    (* elaboration proved the counter: count to NUM_STEPS + 1, then hold *)
    if !step <= e.esteps then incr step;
    settled := false
  in
  let read n = match Hashtbl.find_opt index n with Some i -> v.(i) | None -> 0 in
  let pin n =
    match Hashtbl.find_opt pins n with
    | Some i ->
      fun x ->
        v.(i) <- x;
        settled := false
    | None -> ignore
  in
  let reset () =
    Array.blit seeds 0 q 0 ncells;
    Array.fill sg 0 ncells 0;
    Array.fill v 0 !slots 0;
    step := 0;
    settled := false
  in
  { settle; clock; read; pin; reset }

let test_signatures ?faulty (e : elab) ~session ~patterns =
  if e.problems <> [] then
    invalid_arg ("Equiv.test_signatures: " ^ String.concat "; " e.problems);
  Option.iter
    (fun (inst, _) ->
      if not (Array.exists (fun u -> u.uinst = inst) e.units) then
        invalid_arg ("Equiv.test_signatures: no unit instance " ^ inst))
    faulty;
  let m = machine ?faulty e ~tm:1 ~sess:session in
  for _ = 1 to patterns do
    m.settle ();
    m.clock ()
  done;
  m.settle ();
  List.filter_map
    (fun (port, _) ->
      if String.starts_with ~prefix:"sig_" port then Some (port, m.read port) else None)
    e.eout

(* ------------------------------------------------------------------ *)
(* Public entry points                                                *)
(* ------------------------------------------------------------------ *)

(* A functional-mode sampler on one machine, reset per vector: a vector
   (DFG input -> value) to each output port's value, in output order.
   Each run follows the testbench timing convention: [num_steps + 1]
   cycles from reset, and an output latched at the end of control step
   [c] ({!Control.latch_step}) is sampled right after cycle [c]'s latch. *)
let sampler (e : elab) (dp : Datapath.t) ~width =
  let m = machine e ~tm:0 ~sess:0 in
  let capture =
    List.map
      (fun (v, _) -> ("pout_" ^ sanitize v, Control.latch_step dp.Datapath.dfg v))
      dp.Datapath.outputs
  in
  fun inputs ->
    m.reset ();
    List.iter (fun (v, x) -> m.pin ("pin_" ^ sanitize v) (x land mask width)) inputs;
    let results = Hashtbl.create 8 in
    for c = 0 to e.esteps do
      m.settle ();
      m.clock ();
      m.settle ();
      List.iter
        (fun (port, at) -> if at = c then Hashtbl.replace results port (m.read port))
        capture
    done;
    List.filter_map
      (fun (port, _) -> Option.map (fun x -> (port, x)) (Hashtbl.find_opt results port))
      capture

let simulate_vectors e dp ~width vectors = List.map (sampler e dp ~width) vectors

(* Every cross-check draws its vectors from this seed, so a verdict
   names the same vectors on every run. *)
let cross_check (e : elab) (dp : Datapath.t) ~width ~vectors =
  let rng = Prng.create 7 in
  let dfg = dp.Datapath.dfg in
  let sample = sampler e dp ~width and interp = Interp.run dp ~width in
  let rec go i =
    if i >= vectors then (None, i)
    else begin
      let inputs =
        List.map (fun v -> (v, Prng.int rng (1 lsl width))) dfg.Dfg.inputs
      in
      let expected, _ = interp ~inputs in
      let results = sample inputs in
      let bad =
        List.find_map
          (fun (v, _) ->
            match (List.assoc_opt v expected, List.assoc_opt ("pout_" ^ sanitize v) results) with
            | Some exp, Some act when exp <> act ->
              Some { vector = inputs; output = v; expected = exp; actual = act }
            | _ -> None)
          dp.Datapath.outputs
      in
      match bad with Some m -> (Some m, i + 1) | None -> go (i + 1)
    end
  in
  go 0

type parsed = (elab, Diagnostic.t list) result

let parse_back rtl : parsed =
  Telemetry.with_span "rtl.parse" @@ fun () ->
  let parsed = Parser.parse rtl in
  match Parser.errors parsed with
  | _ :: _ as errs -> Error errs
  | [] -> (
    match pick_datapath parsed with
    | Ok m -> Ok (elaborate m)
    | Error problems ->
      let empty =
        { Parser.name = ""; mparams = []; ports = []; items = []; mline = 0 }
      in
      Ok { (elaborate empty) with problems })

let structural ?(width = 8) ?bist ?sessions ?(regw = []) e dp =
  Telemetry.with_span "rtl.structural" @@ fun () ->
  match e.problems with
  | _ :: _ -> e.problems
  | [] ->
    let st = Netlist.create () in
    let model = Netlist.of_datapath st ~width ?bist ?sessions ~regw dp in
    Netlist.differences st ~a_label:"model" ~b_label:"rtl" model (netlist st e)

let functional ?(vectors = 16) ?(width = 8) e dp =
  Telemetry.with_span "rtl.functional" @@ fun () ->
  if e.problems <> [] || vectors <= 0 then (None, 0)
  else cross_check e dp ~width ~vectors

let verify ?vectors ?width ?bist ?sessions ?regw ~rtl dp =
  let t0 = Telemetry.now () in
  let result =
    Telemetry.with_span "rtl.equiv" @@ fun () ->
    match parse_back rtl with
    | Error errs -> Error errs
    | Ok e ->
      let structural = structural ?width ?bist ?sessions ?regw e dp in
      let functional, vectors_run = functional ?vectors ?width e dp in
      Ok { structural; functional; vectors_run }
  in
  Telemetry.observe "rtl.verify_ns" (Int64.to_int (Int64.sub (Telemetry.now ()) t0));
  result

(* --- the verdict text ------------------------------------------------ *)

type finding = { rule : string; message : string }

let findings ?(unparsable = []) ?(structural = []) ?functional () =
  List.map
    (fun d ->
      { rule = "RTL005"; message = "emitted RTL is unparsable: " ^ Diagnostic.to_string d })
    unparsable
  @ List.map (fun d -> { rule = "RTL005"; message = "parse-back mismatch: " ^ d }) structural
  @
  match functional with
  | None -> []
  | Some m ->
    [
      {
        rule = "EQ002";
        message =
          Printf.sprintf
            "parsed RTL disagrees with the interpreter on output %s (expected %d, got \
             %d) for vector %s"
            m.output m.expected m.actual
            (String.concat ", "
               (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) m.vector));
      };
    ]

let verdict = function
  | Error unparsable -> findings ~unparsable ()
  | Ok r -> findings ~structural:r.structural ?functional:r.functional ()

let line f = f.rule ^ " " ^ f.message

(* --- golden drift -------------------------------------------------- *)

let strip_item (it : Parser.item) : Parser.item =
  match it with
  | Parser.Decl d -> Parser.Decl { d with dline = 0 }
  | Parser.Assign a -> Parser.Assign { a with aline = 0 }
  | Parser.Localparam l -> Parser.Localparam { l with lline = 0 }
  | Parser.Always a -> Parser.Always { a with bline = 0 }
  | Parser.Initial _ -> it
  | Parser.Instance i -> Parser.Instance { i with iline = 0 }

let strip_module (m : Parser.module_) : Parser.module_ =
  {
    m with
    mline = 0;
    ports = List.map (fun (p : Parser.port) -> { p with Parser.pline = 0 }) m.Parser.ports;
    items = List.map strip_item m.Parser.items;
  }

let drift ~golden ~current =
  let pg = Parser.parse ~file:"golden" golden in
  let pc = Parser.parse ~file:"current" current in
  match (Parser.errors pg, Parser.errors pc) with
  | ([] as _eg), [] -> (
    let diffs = ref [] in
    let add s = diffs := s :: !diffs in
    let support (p : Parser.t) (dp : Parser.module_) =
      List.filter (fun (m : Parser.module_) -> m != dp) p.Parser.modules
    in
    match (pick_datapath pg, pick_datapath pc) with
    | Error eg, _ -> Ok (List.map (fun s -> "golden: " ^ s) eg)
    | _, Error ec -> Ok (List.map (fun s -> "current: " ^ s) ec)
    | Ok mg, Ok mc ->
      let structural =
        match (elaborate mg, elaborate mc) with
        | { problems = _ :: _ as pg; _ }, _ -> List.map (fun s -> "golden: " ^ s) pg
        | _, { problems = _ :: _ as pc; _ } -> List.map (fun s -> "current: " ^ s) pc
        | eg, ec ->
          let st = Netlist.create () in
          let golden = netlist st eg in
          Netlist.differences st ~a_label:"golden" ~b_label:"current" golden (netlist st ec)
      in
      List.iter add structural;
      let sg = support pg mg and sc = support pc mc in
      List.iter
        (fun (m : Parser.module_) ->
          match
            List.find_opt
              (fun (m' : Parser.module_) -> m'.Parser.name = m.Parser.name)
              sc
          with
          | None -> add (Printf.sprintf "support module %s removed" m.Parser.name)
          | Some m' ->
            if strip_module m <> strip_module m' then
              add (Printf.sprintf "support module %s changed" m.Parser.name))
        sg;
      List.iter
        (fun (m : Parser.module_) ->
          if
            not
              (List.exists
                 (fun (m' : Parser.module_) -> m'.Parser.name = m.Parser.name)
                 sg)
          then add (Printf.sprintf "support module %s added" m.Parser.name))
        sc;
      Ok (List.rev !diffs))
  | eg, ec -> Error (eg @ ec)
