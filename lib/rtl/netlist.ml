module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Resource = Bistpath_bist.Resource
module Session = Bistpath_bist.Session
module Ipath = Bistpath_ipath.Ipath
module Listx = Bistpath_util.Listx
module Telemetry = Bistpath_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* The node store                                                     *)
(* ------------------------------------------------------------------ *)

(* Every combinational cone is partially evaluated per slot — a (test
   context, control step) pair — into a DAG over opaque atoms: input
   ports and register instance outputs. Nodes are hash-consed in one
   store both netlists of a comparison share, so equal subtrees are one
   id. Register instances are the only cells, numbered across the union
   of the netlists in the store; their identity is resolved by colour
   refinement, never by name. *)
type node =
  | Pin of string
  | RegQ of int
  | RegSig of int
  | Const of int
  | Undriven
  | Op of string * int array

type store = {
  ids : (node, int) Hashtbl.t;
  mutable nodes : node array;
  mutable size : int;
  mutable ncells : int;  (* union cell indices handed out *)
}

let create () = { ids = Hashtbl.create 256; nodes = Array.make 256 Undriven; size = 0; ncells = 0 }

let node st id = st.nodes.(id)

let intern st n =
  match Hashtbl.find_opt st.ids n with
  | Some id -> id
  | None ->
    let id = st.size in
    if id = Array.length st.nodes then begin
      let bigger = Array.make (2 * id) Undriven in
      Array.blit st.nodes 0 bigger 0 id;
      st.nodes <- bigger
    end;
    st.nodes.(id) <- n;
    st.size <- id + 1;
    Hashtbl.add st.ids n id;
    id

let pin st p = intern st (Pin p)

let reg_q st i = intern st (RegQ i)

let reg_sig st i = intern st (RegSig i)

let const st c = intern st (Const c)

let undriven st = intern st Undriven

let reserve st n =
  let base = st.ncells in
  st.ncells <- base + n;
  base

let is_zero st id = match st.nodes.(id) with Const 0 -> true | _ -> false

(* The smart constructor, over already normalized children. [lt] only
   occurs as the data-position comparison of a Less function; the
   emitter's zero-padded concat and guarded-division idioms collapse so
   that formatting choices never affect the canonical form. *)
let op st o kids =
  match (o, kids) with
  | "lt", _ -> intern st (Op ("less", kids))
  | "concat", [| z; l |]
    when is_zero st z && (match st.nodes.(l) with Op ("less", _) -> true | _ -> false) ->
    l
  | "cond", [| c; k; d |] -> (
    match (st.nodes.(c), st.nodes.(k), st.nodes.(d)) with
    | Op ("eq", [| r; z |]), Const _, Op ("udiv", [| l; r' |]) when r = r' && is_zero st z ->
      intern st (Op ("div", [| l; r |]))
    | _ -> intern st (Op (o, kids)))
  | _ -> intern st (Op (o, kids))

let commutative = [ "add"; "mul"; "and"; "or"; "xor" ]

(* ------------------------------------------------------------------ *)
(* Slots                                                              *)
(* ------------------------------------------------------------------ *)

(* Session contexts are bounded so a pathological session count cannot
   make slot enumeration explode; both sides apply the same bound. *)
let max_session_contexts = 16

(* Slot [i] is test mode [t], session context [k] and step [s] for
   i = (t * sessions + k) * per + s, where per = steps + 2. *)
type grid = {
  tms : int;
  sessions : int;
  per : int;
  cls : int array array;  (* what a value reads -> slot -> its class *)
}

let has m bit = m land bit <> 0

(* What a value reads of its slot *)
let reads_step = 1

let reads_tm = 2

let reads_session = 4

let reads_all = 7

let grid ~has_tm ~sess_bits ~steps =
  let tms = if has_tm then 2 else 1
  and sessions =
    match sess_bits with None -> 1 | Some b -> min (1 lsl min b 30) max_session_contexts
  and per = steps + 2 in
  (* the slots a value reading [m] cannot tell apart form one class *)
  let class_of m i =
    let ks = if has m reads_session then sessions else 1 in
    let t = if has m reads_tm then i / per / sessions else 0 in
    let k = if has m reads_session then i / per mod sessions else 0 in
    let s = if has m reads_step then i mod per else 0 in
    (((t * ks) + k) * if has m reads_step then per else 1) + s
  in
  {
    tms;
    sessions;
    per;
    cls = Array.init (reads_all + 1) (fun m -> Array.init (tms * sessions * per) (class_of m));
  }

let contexts g =
  List.concat_map (fun tm -> List.init g.sessions (fun k -> (tm, k))) (List.init g.tms Fun.id)

let slot_count g = g.tms * g.sessions * g.per

let step_of g i = i mod g.per

let tm_of g i = i / g.per / g.sessions

let session_of g i = i / g.per mod g.sessions

let classes g m =
  (if has m reads_tm then g.tms else 1)
  * (if has m reads_session then g.sessions else 1)
  * if has m reads_step then g.per else 1

let class_of g m i = g.cls.(m).(i)

(* [spread g m i a v] sets [v] in every slot of [a] that agrees with slot
   [i] on what [m] reads *)
let spread g m i a v =
  let range bit x count = if has m bit then (x, x) else (0, count - 1) in
  let t0, t1 = range reads_tm (tm_of g i) g.tms in
  let k0, k1 = range reads_session (session_of g i) g.sessions in
  let s0, s1 = range reads_step (step_of g i) g.per in
  for t = t0 to t1 do
    for k = k0 to k1 do
      for s = s0 to s1 do
        a.((((t * g.sessions) + k) * g.per) + s) <- v
      done
    done
  done

(* Per-slot node ids: [f i] is slot [i]'s node and what it read of the
   slot, and every slot that agrees with [i] on that takes the node. [f]
   runs in slot order, on the slots no earlier call covered. *)
let per_slot g f =
  let a = Array.make (slot_count g) (-1) in
  for i = 0 to Array.length a - 1 do
    if a.(i) < 0 then
      let m, v = f i in
      spread g m i a v
  done;
  a

(* ------------------------------------------------------------------ *)
(* Netlists                                                           *)
(* ------------------------------------------------------------------ *)

type cell = {
  kind : string;  (* primitive module name *)
  cname : string;  (* representative name, messages only *)
  params : (string * int) list;  (* sorted *)
  conns : (string * int array) list;  (* input port -> per-slot node; sorted *)
}

type t = {
  nname : string;
  nin : (string * int) list;  (* input port -> width, sorted *)
  nout : (string * int) list;
  nsteps : int;
  ncontexts : (int * int) list;  (* (test_mode, test_session) *)
  base : int;  (* union index of the first cell *)
  cells : cell array;
  outdrv : (string * int array) list;  (* output port -> per-slot node *)
}

(* ------------------------------------------------------------------ *)
(* Reference netlist from the in-memory model                         *)
(* ------------------------------------------------------------------ *)

let sanitize = Verilog.sanitize

let op_name = function
  | Op.Add -> "add"
  | Op.Sub -> "sub"
  | Op.Mul -> "mul"
  | Op.Div -> "div"
  | Op.And -> "and"
  | Op.Or -> "or"
  | Op.Xor -> "xor"
  | Op.Less -> "less"

let of_datapath st ?(width = 8) ?bist ?sessions ?(regw = []) (dp : Datapath.t) =
  let rw rid = match List.assoc_opt rid regw with Some w -> w | None -> width in
  let dfg = dp.Datapath.dfg in
  let control = Control.build dp in
  let steps = Dfg.num_csteps dfg in
  let session_list =
    match sessions with Some (t : Session.t) -> t.Session.sessions | None -> []
  in
  let nsess = List.length session_list in
  let has_tm = bist <> None in
  let sess_bits = if nsess > 0 then Some (Verilog.session_bits nsess) else None in
  let g = grid ~has_tm ~sess_bits ~steps in
  let embedding_of = Verilog.simple_embedding bist in
  let base = reserve st (List.length dp.Datapath.regs) in
  let reg_index = Hashtbl.create 16 in
  List.iteri
    (fun i (r : Datapath.reg) -> Hashtbl.replace reg_index r.Datapath.rid (base + i))
    dp.Datapath.regs;
  let q rid = reg_q st (Hashtbl.find reg_index rid) in
  (* session steering makes a unit's inputs and a register's data input
     read the test context as well as the step *)
  let steered = if nsess > 0 then reads_all else reads_step in
  (* what a unit's nodes need, computed once per unit: its port sources,
     control activity, test session, simple embedding and per-class
     output nodes *)
  let unit_info = Hashtbl.create 16 in
  List.iter
    (fun (u : Massign.hw) ->
      let mid = u.Massign.mid in
      if not (Hashtbl.mem unit_info mid) then
        Hashtbl.replace unit_info mid
          ( u,
            Datapath.unit_port_sources dp mid,
            Control.activity control mid,
            Verilog.session_of session_list mid,
            embedding_of mid,
            Array.make (2 * g.per) (-1) ))
    dp.Datapath.massign.Massign.units;
  (* a unit's output node at slot [i], mirroring the emitted multiplexer
     and function-select chains exactly: it reads the step, and the test
     context only to tell its own session's test slots from the rest *)
  let unit_node i (u, (l_srcs, r_srcs), activity, session, embedding, memo) =
    let s = step_of g i in
    let testing =
      nsess > 0 && tm_of g i = 1 && embedding <> None && session = Some (session_of g i)
    in
    let c = if testing then g.per + s else s in
    if memo.(c) >= 0 then memo.(c)
    else begin
      let v =
        if l_srcs = [] && r_srcs = [] then undriven st
        else begin
          let port side srcs sel_of =
            match srcs with
            | [] -> const st 0
            | [ src ] -> q src
            | ss ->
              let test_idx =
                match embedding with
                | Some e when testing ->
                  let tpg = if side = `L then e.Ipath.l_tpg else e.Ipath.r_tpg in
                  Listx.index_of (String.equal tpg) ss
                | Some _ | None -> None
              in
              let i =
                match test_idx with
                | Some i -> i
                | None -> (
                  match List.assoc_opt s activity with
                  | Some sel -> sel_of sel
                  | None -> 0)
              in
              q (List.nth ss i)
          in
          let l = port `L l_srcs (fun (o : Control.unit_op) -> o.Control.l_select) in
          let r = port `R r_srcs (fun (o : Control.unit_op) -> o.Control.r_select) in
          match u.Massign.kinds with
          | [ k ] -> op st (op_name k) [| l; r |]
          | kinds ->
            (* emitted chain: fsel[0] ? e0 : ... : e_last; fsel = 0 falls
               through to the last kind *)
            let fsel =
              match List.assoc_opt s activity with
              | Some o -> 1 lsl o.Control.f_select
              | None -> 0
            in
            let rec pick i = function
              | [ k ] -> k
              | k :: rest -> if (fsel lsr i) land 1 = 1 then k else pick (i + 1) rest
              | [] -> assert false
            in
            op st (op_name (pick 0 kinds)) [| l; r |]
        end
      in
      memo.(c) <- v;
      v
    end
  in
  let cells =
    List.map
      (fun (r : Datapath.reg) ->
        let rid = r.Datapath.rid in
        let writers =
          match List.assoc_opt rid dp.Datapath.reg_writers with
          | Some ws -> ws
          | None -> []
        in
        let sched = Control.write_schedule control rid in
        let sources =
          List.map
            (function
              | Datapath.From_port v ->
                let p = pin st ("pin_" ^ sanitize v) in
                fun _ -> p
              | Datapath.From_unit mid -> (
                match Hashtbl.find_opt unit_info mid with
                | Some info -> fun i -> unit_node i info
                | None ->
                  let u = undriven st in
                  fun _ -> u))
            writers
        in
        (* the register's source while testing, per context, and by step *)
        let overrides =
          Array.init (g.tms * g.sessions) (fun ctx ->
              let tm = ctx / g.sessions and sess = ctx mod g.sessions in
              if nsess > 0 && tm = 1 && sess < nsess then
                List.find_map
                  (fun mid ->
                    match embedding_of mid with
                    | Some e when String.equal e.Ipath.sa rid ->
                      Listx.index_of (fun w -> w = Datapath.From_unit mid) writers
                    | Some _ | None -> None)
                  (List.nth session_list sess)
              else None)
        in
        let scheduled =
          Array.init g.per (fun s ->
              match List.assoc_opt s sched with Some src -> src | None -> 0)
        in
        let d_at i =
          match sources with
          | [] -> const st 0
          | [ source ] -> source i
          | sources ->
            let sel =
              match overrides.(i / g.per) with Some k -> k | None -> scheduled.(step_of g i)
            in
            List.nth sources sel i
        in
        let en_at i = const st (if List.mem_assoc (step_of g i) sched then 1 else 0) in
        let style = Verilog.style_of bist rid in
        let params =
          match style with
          | Resource.Normal | Resource.Sa -> [ ("WIDTH", rw rid) ]
          | Resource.Tpg | Resource.Bilbo | Resource.Cbilbo ->
            [ ("SEED", Verilog.test_seed ~width rid); ("WIDTH", width) ]
        in
        let base =
          [
            ("clk", per_slot g (fun _ -> (0, pin st "clk")));
            ("rst", per_slot g (fun _ -> (0, const st 0)));
            ("en", per_slot g (fun i -> (reads_step, en_at i)));
            ("d", per_slot g (fun i -> (steered, d_at i)));
          ]
        in
        let tm_conn = ("test_mode", per_slot g (fun i -> (reads_tm, const st (tm_of g i)))) in
        let conns =
          match style with
          | Resource.Normal -> base
          | Resource.Tpg | Resource.Sa | Resource.Cbilbo -> tm_conn :: base
          | Resource.Bilbo ->
            let compact_sessions =
              List.concat
                (List.mapi
                   (fun k units ->
                     List.filter_map
                       (fun mid ->
                         match embedding_of mid with
                         | Some e when String.equal e.Ipath.sa rid -> Some k
                         | Some _ | None -> None)
                       units)
                   session_list)
            in
            ( "compact",
              per_slot g (fun i ->
                  ( reads_session,
                    const st (if List.mem (session_of g i) compact_sessions then 1 else 0) )) )
            :: tm_conn :: base
        in
        {
          kind = Verilog.reg_module style;
          cname = rid;
          params;
          conns = List.sort (fun (a, _) (b, _) -> compare a b) conns;
        })
      dp.Datapath.regs
  in
  let sa_regs = Verilog.signature_registers bist in
  let nin =
    [ ("clk", 1); ("rst", 1) ]
    @ (if has_tm then [ ("test_mode", 1) ] else [])
    @ (match sess_bits with Some b -> [ ("test_session", b) ] | None -> [])
    @ List.map (fun v -> ("pin_" ^ sanitize v, width)) (Dfg.used_inputs dfg)
  in
  let nout =
    List.map (fun (v, _) -> ("pout_" ^ sanitize v, width)) dp.Datapath.outputs
    @ List.map (fun rid -> ("sig_" ^ sanitize rid, width)) sa_regs
  in
  let n = slot_count g in
  let outdrv =
    List.map (fun (v, rid) -> ("pout_" ^ sanitize v, Array.make n (q rid))) dp.Datapath.outputs
    @ List.map
        (fun rid ->
          ("sig_" ^ sanitize rid, Array.make n (reg_sig st (Hashtbl.find reg_index rid))))
        sa_regs
  in
  let bycol l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    nname = sanitize dfg.Dfg.name ^ "_datapath";
    nin = bycol nin;
    nout = bycol nout;
    nsteps = steps;
    ncontexts = contexts g;
    base;
    cells = Array.of_list cells;
    outdrv = bycol outdrv;
  }

(* ------------------------------------------------------------------ *)
(* Colour refinement                                                  *)
(* ------------------------------------------------------------------ *)

(* Under a colouring of the union's cells, number the store's nodes so
   that two nodes get one number exactly when they are the same tree
   once every register is replaced by its colour and the inputs of a
   commutative operator are taken as a multiset. Children precede their
   parents in id order, so one pass in id order does it. *)
let canonical st colours =
  let canon = Array.make st.size 0 in
  let seen = Hashtbl.create (2 * st.size) in
  for id = 0 to st.size - 1 do
    let key =
      match st.nodes.(id) with
      | RegQ c -> RegQ colours.(c)
      | RegSig c -> RegSig colours.(c)
      | Op (o, kids) ->
        let ks = Array.map (fun k -> canon.(k)) kids in
        if List.mem o commutative then Array.sort Int.compare ks;
        Op (o, ks)
      | (Pin _ | Const _ | Undriven) as leaf -> leaf
    in
    canon.(id) <-
      (match Hashtbl.find_opt seen key with
      | Some c -> c
      | None ->
        let c = Hashtbl.length seen in
        Hashtbl.add seen key c;
        c)
  done;
  canon

(* Weisfeiler–Leman colour refinement over the disjoint union of two
   netlists: a register's colour numbers its signature — its kind,
   parameters, ports and per-slot canonical nodes under the last
   colours — in first-seen order over [a]'s cells, then [b]'s. Each
   round refines the last; one that gains no class on the union is the
   fixed point (stopping on each side alone would miss a swap). Returns
   the colours by union index. *)
let colour st a b =
  let colours = Array.make st.ncells 0 in
  (* kind, parameters and port names never change: one number each *)
  let statics = Hashtbl.create 16 in
  let static_of (c : cell) =
    let key = (c.kind, c.params, List.map fst c.conns) in
    match Hashtbl.find_opt statics key with
    | Some k -> k
    | None ->
      let k = Hashtbl.length statics in
      Hashtbl.add statics key k;
      k
  in
  let na = Array.length a.cells in
  let cells = Array.append a.cells b.cells in
  let union =
    Array.init (Array.length cells) (fun i -> if i < na then a.base + i else b.base + i - na)
  in
  (* a cell's signature: its static number, then its ports' per-slot
     nodes, compared in place through the round's node numbers *)
  let statics = Array.map static_of cells in
  let rows = Array.map (fun (c : cell) -> List.map snd c.conns) cells in
  let hash canon i =
    List.fold_left
      (fun h row ->
        let h = ref h in
        for j = 0 to Array.length row - 1 do
          h := (!h * 65599) + canon.(row.(j))
        done;
        !h)
      statics.(i) rows.(i)
    land max_int
  in
  let same canon i i' =
    let same_row r r' =
      let n = Array.length r in
      n = Array.length r'
      &&
      let rec go j = j = n || (canon.(r.(j)) = canon.(r'.(j)) && go (j + 1)) in
      go 0
    in
    statics.(i) = statics.(i')
    && List.compare_lengths rows.(i) rows.(i') = 0
    && List.for_all2 same_row rows.(i) rows.(i')
  in
  let rec round classes rounds =
    let canon = canonical st colours in
    let firsts = Hashtbl.create 64 and count = ref 0 in
    for i = 0 to Array.length cells - 1 do
      let h = hash canon i in
      let first = List.find_opt (fun (j, _) -> same canon i j) (Hashtbl.find_all firsts h) in
      colours.(union.(i)) <-
        (match first with
        | Some (_, k) -> k
        | None ->
          let k = !count in
          incr count;
          Hashtbl.add firsts h (i, k);
          k)
    done;
    if !count > classes then round !count (rounds + 1) else rounds + 1
  in
  let rounds = round 1 0 in
  Telemetry.incr "rtl.refine_rounds" ~by:rounds;
  colours

let refine st a b =
  let colours = colour st a b in
  ( Array.sub colours a.base (Array.length a.cells),
    Array.sub colours b.base (Array.length b.cells) )

(* A node as text, registers by colour: messages only *)
let rec ser st colours id =
  match st.nodes.(id) with
  | Pin p -> "p:" ^ p
  | RegQ i -> "q:" ^ string_of_int colours.(i)
  | RegSig i -> "s:" ^ string_of_int colours.(i)
  | Const c -> "c:" ^ string_of_int c
  | Undriven -> "undriven"
  | Op (o, kids) ->
    let ss = List.map (ser st colours) (Array.to_list kids) in
    let ss = if List.mem o commutative then List.sort compare ss else ss in
    o ^ "(" ^ String.concat "," ss ^ ")"

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let max_diffs = 24

let truncate_str n s = if String.length s <= n then s else String.sub s 0 n ^ "…"

let slot_trees nl =
  Array.fold_left
    (fun n (c : cell) ->
      List.fold_left (fun n (_, slots) -> n + Array.length slots) n c.conns)
    0 nl.cells

let differences st ~a_label ~b_label a b =
  Telemetry.incr "rtl.slot_trees" ~by:(slot_trees a + slot_trees b);
  let diffs = ref [] and count = ref 0 in
  let diff fmt =
    Printf.ksprintf
      (fun s ->
        incr count;
        if !count <= max_diffs then diffs := s :: !diffs
        else if !count = max_diffs + 1 then diffs := "… (more differences omitted)" :: !diffs)
      fmt
  in
  let compare_ports what pa pb =
    List.iter
      (fun (p, w) ->
        match List.assoc_opt p pb with
        | None -> diff "%s port %s missing in %s" what p b_label
        | Some w' when w' <> w ->
          diff "%s port %s: width %d in %s vs %d in %s" what p w a_label w' b_label
        | Some _ -> ())
      pa;
    List.iter
      (fun (p, _) ->
        if not (List.mem_assoc p pa) then diff "unexpected %s port %s in %s" what p b_label)
      pb
  in
  if a.nname <> b.nname then
    diff "module name: %s in %s vs %s in %s" a.nname a_label b.nname b_label;
  compare_ports "input" a.nin b.nin;
  compare_ports "output" a.nout b.nout;
  if a.nsteps <> b.nsteps then
    diff "NUM_STEPS: %d in %s vs %d in %s" a.nsteps a_label b.nsteps b_label;
  if a.ncontexts <> b.ncontexts then
    diff "test contexts differ (%d in %s vs %d in %s)" (List.length a.ncontexts) a_label
      (List.length b.ncontexts) b_label;
  let result =
    if !diffs <> [] then List.rev !diffs
    else begin
      (* interfaces agree, so slots align: match registers by refinement *)
      let na = Array.length a.cells and nb = Array.length b.cells in
      if na <> nb then diff "register count: %d in %s vs %d in %s" na a_label nb b_label;
      let colours = colour st a b in
      (* per colour, the first copies in cell order pair off; the copies
         beyond the other side's count have no counterpart *)
      let count nl =
        let k = Array.make (na + nb) 0 in
        Array.iteri
          (fun i _ ->
            let c = colours.(nl.base + i) in
            k.(c) <- k.(c) + 1)
          nl.cells;
        k
      in
      let unmatched nl other label other_label =
        Array.iteri
          (fun i (c : cell) ->
            let k = colours.(nl.base + i) in
            if other.(k) > 0 then other.(k) <- other.(k) - 1
            else
              diff "register %s (%s) in %s has no structural counterpart in %s" c.cname c.kind
                label other_label)
          nl.cells
      in
      let ka = count a and kb = count b in
      unmatched a kb a_label b_label;
      unmatched b ka b_label a_label;
      let canon = canonical st colours in
      let per = a.nsteps + 2 in
      List.iter
        (fun (port, sa) ->
          match List.assoc_opt port b.outdrv with
          | None -> diff "output %s is undriven in %s" port b_label
          | Some sb ->
            let n = min (Array.length sa) (Array.length sb) in
            let rec first i =
              if i >= n then None
              else if canon.(sa.(i)) <> canon.(sb.(i)) then Some i
              else first (i + 1)
            in
            Option.iter
              (fun i ->
                let tm, sess = List.nth a.ncontexts (i / per) in
                diff "output %s differs at test_mode=%d session=%d step=%d: %s vs %s" port tm
                  sess (i mod per)
                  (truncate_str 48 (ser st colours sa.(i)))
                  (truncate_str 48 (ser st colours sb.(i))))
              (first 0))
        a.outdrv;
      List.rev !diffs
    end
  in
  Telemetry.incr "rtl.nodes" ~by:st.size;
  result
