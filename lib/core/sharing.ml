module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Sset = Bistpath_dfg.Dfg.Sset

type ctx = {
  unit_ids : string array;
  unit_index : (string, int) Hashtbl.t;
  var_index : (string, int) Hashtbl.t;
  in_mask : int array;
  out_mask : int array;
  sd : int array;
  out_count : int array;
  instances : int array array;
  instance_unit : int array;
  operand_of : int array array;
  ins : Sset.t array;
  outs : Sset.t array;
}

let max_units = Sys.int_size

let popcount m =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go m 0

let bit u = 1 lsl u

let index_of names =
  let tbl = Hashtbl.create (Array.length names) in
  Array.iteri (fun i n -> Hashtbl.replace tbl n i) names;
  tbl

let make dfg massign =
  let ops = Array.of_list dfg.Dfg.ops in
  let unit_of_op = Array.map (fun (op : Op.t) -> Dfg.Smap.find op.id massign.Massign.of_op) ops in
  (* Every bound operation is an instance, so a unit is used iff some
     operation maps to it. *)
  let unit_ids = Array.of_list (List.sort_uniq compare (Array.to_list unit_of_op)) in
  let nu = Array.length unit_ids in
  if nu > max_units then
    invalid_arg (Printf.sprintf "Sharing.make: %d units, at most %d supported" nu max_units);
  let unit_index = index_of unit_ids in
  let vars = Array.of_list (Dfg.variables dfg) in
  let var_index = index_of vars in
  let nv = Array.length vars in
  let vid v = Hashtbl.find var_index v in
  let instance_unit = Array.map (Hashtbl.find unit_index) unit_of_op in
  let in_mask = Array.make nv 0 and out_mask = Array.make nv 0 in
  let operand_of = Array.make nv [] in
  let ins = Array.make nu Sset.empty and outs = Array.make nu Sset.empty in
  let instances = Array.make nu [] in
  (* Walk the operations backwards so every per-variable and per-unit
     list ends up in declaration order. *)
  for k = Array.length ops - 1 downto 0 do
    let op = ops.(k) and u = instance_unit.(k) in
    let l = vid op.Op.left and r = vid op.right and o = vid op.out in
    in_mask.(l) <- in_mask.(l) lor bit u;
    in_mask.(r) <- in_mask.(r) lor bit u;
    out_mask.(o) <- out_mask.(o) lor bit u;
    operand_of.(l) <- k :: operand_of.(l);
    if r <> l then operand_of.(r) <- k :: operand_of.(r);
    ins.(u) <- Sset.add op.left (Sset.add op.right ins.(u));
    outs.(u) <- Sset.add op.out outs.(u);
    instances.(u) <- k :: instances.(u)
  done;
  let by_step a b = compare (Dfg.cstep dfg ops.(a).Op.id) (Dfg.cstep dfg ops.(b).Op.id) in
  {
    unit_ids;
    unit_index;
    var_index;
    in_mask;
    out_mask;
    sd = Array.init nv (fun v -> popcount in_mask.(v) + popcount out_mask.(v));
    out_count = Array.map Sset.cardinal outs;
    instances = Array.map (fun l -> Array.of_list (List.stable_sort by_step l)) instances;
    instance_unit;
    operand_of = Array.map Array.of_list operand_of;
    ins;
    outs;
  }

let units t = Array.to_list t.unit_ids

let unit_index t mid = Hashtbl.find_opt t.unit_index mid

let var_index t v = Hashtbl.find_opt t.var_index v

let in_set t mid =
  match unit_index t mid with Some u -> t.ins.(u) | None -> Sset.empty

let out_set t mid =
  match unit_index t mid with Some u -> t.outs.(u) | None -> Sset.empty

let sd_var t v = match var_index t v with Some i -> t.sd.(i) | None -> 0

(* Variables outside the design belong to no set. *)
let masks t vars =
  List.fold_left
    (fun (im, om) v ->
      match var_index t v with
      | Some i -> (im lor t.in_mask.(i), om lor t.out_mask.(i))
      | None -> (im, om))
    (0, 0) vars

let sd_vars t vars =
  let im, om = masks t vars in
  popcount im + popcount om

let delta_sd t reg v = sd_vars t (v :: reg) - sd_vars t reg

let names_of t mask =
  List.filter (fun u -> mask land bit u <> 0) (List.init (Array.length t.unit_ids) Fun.id)
  |> List.map (fun u -> t.unit_ids.(u))

(* Single assignment: the unit whose O_M holds a variable produced it,
   and the units whose I_M hold it consume it. *)
let source_units t v =
  match var_index t v with Some i -> names_of t t.out_mask.(i) | None -> []

let dest_units t v =
  match var_index t v with Some i -> names_of t t.in_mask.(i) | None -> []
