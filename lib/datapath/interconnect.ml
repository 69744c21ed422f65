module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module Telemetry = Bistpath_telemetry.Telemetry

type objective = { weight : string -> int }

(* Register feeding each operand of an instance, without building the
   data path: mirrors Datapath.build's reg_of_var. *)
let operand_regs regalloc policy (op : Op.t) =
  let reg_of v =
    match Regalloc.register_of regalloc v with
    | Some rid -> rid
    | None -> (
      match Policy.carried_into policy v with
      | Some target -> "IN_" ^ target
      | None -> "IN_" ^ v)
  in
  (reg_of op.left, reg_of op.right)

(* One unit's instances with its operand registers numbered once, in
   first-use order, and each register's weight read once. *)
type numbered = {
  lnum : int array;  (* per instance, unswapped *)
  rnum : int array;
  weights : int array;  (* per register number *)
  lcount : int array;  (* work arrays: instances feeding each port *)
  rcount : int array;
}

let number objective instances =
  let ids = Hashtbl.create 8 in
  let names = ref [] in
  let id reg =
    match Hashtbl.find_opt ids reg with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids reg i;
      names := reg :: !names;
      i
  in
  let lr = Array.of_list (List.map (fun ((l, r), _) -> (id l, id r)) instances) in
  let weights = Array.of_list (List.rev_map objective.weight !names) in
  let k = Array.length weights in
  { lnum = Array.map fst lr; rnum = Array.map snd lr; weights; lcount = Array.make k 0;
    rcount = Array.make k 0 }

(* An orientation's score, compared field by field, smaller first:
   connections, minus the summed weight of registers on both ports,
   minus the smaller port's source count (among equal-cost orientations,
   balanced port source counts offer the BIST search more distinct TPG
   pairs), then the number of swaps. *)
type score = { connections : int; lr_weight : int; balance : int; swap_count : int }

let better a b =
  if a.connections <> b.connections then a.connections < b.connections
  else if a.lr_weight <> b.lr_weight then a.lr_weight < b.lr_weight
  else if a.balance <> b.balance then a.balance < b.balance
  else a.swap_count < b.swap_count

(* Score one unit's orientation assignment from per-register port
   counts. [swaps] has one bit per instance (non-commutative instances
   are pinned to false). *)
let score_unit u swaps =
  let lc = u.lcount and rc = u.rcount in
  Array.fill lc 0 (Array.length lc) 0;
  Array.fill rc 0 (Array.length rc) 0;
  let swap_count = ref 0 in
  for i = 0 to Array.length swaps - 1 do
    if swaps.(i) then begin
      incr swap_count;
      lc.(u.rnum.(i)) <- lc.(u.rnum.(i)) + 1;
      rc.(u.lnum.(i)) <- rc.(u.lnum.(i)) + 1
    end
    else begin
      lc.(u.lnum.(i)) <- lc.(u.lnum.(i)) + 1;
      rc.(u.rnum.(i)) <- rc.(u.rnum.(i)) + 1
    end
  done;
  let nl = ref 0 and nr = ref 0 and w = ref 0 in
  for reg = 0 to Array.length lc - 1 do
    if lc.(reg) > 0 then incr nl;
    if rc.(reg) > 0 then incr nr;
    if lc.(reg) > 0 && rc.(reg) > 0 then w := !w + u.weights.(reg)
  done;
  { connections = !nl + !nr; lr_weight = - !w; balance = - min !nl !nr;
    swap_count = !swap_count }

let optimize dfg massign regalloc ~policy ~objective =
  (* Orientations of different units are independent; optimize each unit
     separately, then build the data path once. *)
  let best_swaps_for (u : Massign.hw) =
    let ops = Massign.instances massign dfg u.mid in
    let instances =
      List.map
        (fun (op : Op.t) -> (operand_regs regalloc policy op, Op.commutative op.kind))
        ops
    in
    let free_idx =
      List.concat (List.mapi (fun i (_, c) -> if c then [ i ] else []) instances)
    in
    let free = List.length free_idx in
    let n = List.length instances in
    let swaps = Array.make n false in
    let apply_mask mask =
      List.iteri (fun bit i -> swaps.(i) <- mask land (1 lsl bit) <> 0) free_idx
    in
    let numbered = number objective instances in
    let scored = ref 0 in
    let score () =
      incr scored;
      score_unit numbered swaps
    in
    let best = ref (score ()) in
    let best_mask = ref 0 in
    if free <= 12 then
      (* exhaustive *)
      for mask = 0 to (1 lsl free) - 1 do
        apply_mask mask;
        let s = score () in
        if better s !best then begin
          best := s;
          best_mask := mask
        end
      done
    else begin
      (* greedy hill climbing from the identity orientation *)
      apply_mask 0;
      best := score ();
      let improved = ref true in
      let mask = ref 0 in
      while !improved do
        improved := false;
        List.iteri
          (fun bit _ ->
            let candidate = !mask lxor (1 lsl bit) in
            apply_mask candidate;
            let s = score () in
            if better s !best then begin
              best := s;
              mask := candidate;
              improved := true
            end)
          free_idx
      done;
      best_mask := !mask
    end;
    Telemetry.incr "interconnect.orientations" ~by:!scored;
    apply_mask !best_mask;
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i (op : Op.t) -> Hashtbl.replace tbl op.id swaps.(i)) ops;
    tbl
  in
  let per_unit =
    List.map (fun (u : Massign.hw) -> (u.mid, best_swaps_for u)) massign.Massign.units
  in
  let swap opid =
    let mid = (Massign.unit_of_op massign opid).Massign.mid in
    match List.assoc_opt mid per_unit with
    | Some tbl -> ( match Hashtbl.find_opt tbl opid with Some s -> s | None -> false)
    | None -> false
  in
  Datapath.build dfg massign regalloc ~policy ~swap
