module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module Telemetry = Bistpath_telemetry.Telemetry

type objective = { weight : string -> int }

let lr_registers dp mid =
  let l, r = Datapath.unit_port_sources dp mid in
  List.filter (fun x -> List.mem x r) l

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

(* Score one unit's orientation assignment directly from the instance
   list: smaller tuples are better. [swaps] has one bit per instance
   (non-commutative instances are pinned to false). *)
let score_unit objective instances swaps =
  Telemetry.incr "interconnect.orientations";
  let l_sources = Hashtbl.create 8 and r_sources = Hashtbl.create 8 in
  List.iteri
    (fun i ((l, r), _commutative) ->
      let l, r = if swaps.(i) then (r, l) else (l, r) in
      Hashtbl.replace l_sources l ();
      Hashtbl.replace r_sources r ())
    instances;
  let connections = Hashtbl.length l_sources + Hashtbl.length r_sources in
  let lr_weight =
    Hashtbl.fold
      (fun reg () acc -> if Hashtbl.mem r_sources reg then acc + objective.weight reg else acc)
      l_sources 0
  in
  (* among equal-cost orientations, balanced port source counts offer the
     BIST search more distinct TPG pairs *)
  let balance = min (Hashtbl.length l_sources) (Hashtbl.length r_sources) in
  let swap_count = Array.fold_left (fun acc s -> acc + if s then 1 else 0) 0 swaps in
  (connections, -lr_weight, (-balance, swap_count))

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
    let best = ref (score_unit objective instances swaps) in
    let best_mask = ref 0 in
    if free <= 12 then
      (* exhaustive *)
      for mask = 0 to (1 lsl free) - 1 do
        apply_mask mask;
        let s = score_unit objective instances swaps in
        if s < !best then begin
          best := s;
          best_mask := mask
        end
      done
    else begin
      (* greedy hill climbing from the identity orientation *)
      apply_mask 0;
      best := score_unit objective instances swaps;
      let improved = ref true in
      let mask = ref 0 in
      while !improved do
        improved := false;
        List.iteri
          (fun bit _ ->
            let candidate = !mask lxor (1 lsl bit) in
            apply_mask candidate;
            let s = score_unit objective instances swaps in
            if s < !best then begin
              best := s;
              mask := candidate;
              improved := true
            end)
          free_idx
      done;
      best_mask := !mask
    end;
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
