module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign

type reg = { rid : string; vars : string list; dedicated : bool }

type route = {
  opid : string;
  l_reg : string;
  r_reg : string;
  swapped : bool;
  out_reg : string;
}

type wsrc = From_unit of string | From_port of string

type t = {
  dfg : Dfg.t;
  massign : Massign.t;
  regs : reg list;
  routes : route list;
  reg_writers : (string * wsrc list) list;
  outputs : (string * string) list;
}

let dedicated_rid v = "IN_" ^ v

let build dfg massign regalloc ~policy ~swap =
  Bistpath_dfg.Policy.validate dfg policy;
  if not (Regalloc.is_valid_for regalloc dfg ~policy) then
    invalid_arg "Datapath.build: register assignment does not fit the DFG";
  let allocated =
    List.map
      (fun (rid, vars) -> { rid; vars; dedicated = false })
      regalloc.Regalloc.classes
  in
  let carried_of v =
    List.filter_map
      (fun (w, target) -> if String.equal target v then Some w else None)
      policy.Bistpath_dfg.Policy.carried
  in
  let dedicated_inputs =
    if policy.Bistpath_dfg.Policy.allocate_inputs then []
    else
      Dfg.used_inputs dfg
      |> List.map (fun v ->
             { rid = dedicated_rid v; vars = v :: carried_of v; dedicated = true })
  in
  let regs = allocated @ dedicated_inputs in
  let reg_of_var v =
    match Regalloc.register_of regalloc v with
    | Some rid -> rid
    | None -> (
      match Bistpath_dfg.Policy.carried_into policy v with
      | Some target -> dedicated_rid target
      | None ->
        if
          (not policy.Bistpath_dfg.Policy.allocate_inputs)
          && List.mem v dfg.Dfg.inputs
        then dedicated_rid v
        else
          invalid_arg (Printf.sprintf "Datapath.build: variable %s has no register" v))
  in
  let routes =
    List.map
      (fun (op : Op.t) ->
        let swapped = Op.commutative op.kind && swap op.id in
        let l_var, r_var = if swapped then (op.right, op.left) else (op.left, op.right) in
        {
          opid = op.id;
          l_reg = reg_of_var l_var;
          r_reg = reg_of_var r_var;
          swapped;
          out_reg = reg_of_var op.out;
        })
      dfg.Dfg.ops
  in
  let writers_of { rid; vars; dedicated = _ } =
    let from_units =
      vars
      |> List.filter_map (fun v ->
             Dfg.producer dfg v
             |> Option.map (fun (op : Op.t) -> From_unit (Massign.unit_of_op massign op.id).Massign.mid))
    in
    let from_ports =
      vars
      |> List.filter_map (fun v ->
             if List.mem v dfg.Dfg.inputs then Some (From_port v) else None)
    in
    (rid, List.sort_uniq compare (from_units @ from_ports))
  in
  let outputs =
    dfg.Dfg.outputs |> List.map (fun v -> (v, reg_of_var v))
  in
  { dfg; massign; regs; routes; reg_writers = List.map writers_of regs; outputs }

let reg_by_id t rid =
  match List.find_opt (fun r -> String.equal r.rid rid) t.regs with
  | Some r -> r
  | None -> raise Not_found

let routes_of_unit t mid =
  List.filter
    (fun r ->
      String.equal (Massign.unit_of_op t.massign r.opid).Massign.mid mid)
    t.routes

let unit_port_sources t mid =
  let rs = routes_of_unit t mid in
  let l = List.sort_uniq compare (List.map (fun r -> r.l_reg) rs) in
  let r = List.sort_uniq compare (List.map (fun r -> r.r_reg) rs) in
  (l, r)

let input_registers t mid =
  let l, r = unit_port_sources t mid in
  List.sort_uniq compare (l @ r)

let output_registers t mid =
  routes_of_unit t mid |> List.map (fun r -> r.out_reg) |> List.sort_uniq compare

let multiplexed_points t =
  let unit_points =
    List.concat_map
      (fun (u : Massign.hw) ->
        let l, r = unit_port_sources t u.mid in
        [ List.length l; List.length r ])
      t.massign.Massign.units
  in
  let reg_points = List.map (fun (_, ws) -> List.length ws) t.reg_writers in
  unit_points @ reg_points

let mux_count t =
  List.length (List.filter (fun n -> n >= 2) (multiplexed_points t))

let mux_input_total t =
  Bistpath_util.Listx.sum_by (fun n -> max 0 (n - 1)) (multiplexed_points t)

let allocated_register_count t =
  List.length (List.filter (fun r -> not r.dedicated) t.regs)

let self_adjacent_registers t =
  t.regs
  |> List.filter_map (fun { rid; _ } ->
         let loop =
           List.exists
             (fun (u : Massign.hw) ->
               List.mem rid (input_registers t u.mid)
               && List.mem rid (output_registers t u.mid))
             t.massign.Massign.units
         in
         if loop then Some rid else None)

let pp ppf t =
  Format.fprintf ppf "@[<v>registers:@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %s%s = {%s}@," r.rid
        (if r.dedicated then " (dedicated)" else "")
        (String.concat "," r.vars))
    t.regs;
  Format.fprintf ppf "units:@,";
  List.iter
    (fun (u : Massign.hw) ->
      let l, r = unit_port_sources t u.mid in
      Format.fprintf ppf "  %s: L<-{%s} R<-{%s} -> {%s}@," u.mid
        (String.concat "," l) (String.concat "," r)
        (String.concat "," (output_registers t u.mid)))
    t.massign.Massign.units;
  Format.fprintf ppf "register inputs:@,";
  List.iter
    (fun (rid, ws) ->
      let show = function From_unit m -> m | From_port v -> "pin:" ^ v in
      Format.fprintf ppf "  %s <- {%s}@," rid (String.concat "," (List.map show ws)))
    t.reg_writers;
  Format.fprintf ppf "outputs: %s@]"
    (String.concat ", " (List.map (fun (v, r) -> v ^ " from " ^ r) t.outputs))
