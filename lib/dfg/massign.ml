type hw = { mid : string; kinds : Op.kind list }

type t = { units : hw list; of_op : string Dfg.Smap.t }

let fail fmt = Format.kasprintf invalid_arg fmt

let unit_by_id t mid = List.find_opt (fun u -> String.equal u.mid mid) t.units

let make dfg ~units ~bind =
  let of_op =
    List.fold_left (fun m (op, mid) -> Dfg.Smap.add op mid m) Dfg.Smap.empty bind
  in
  let t = { units; of_op } in
  (match
     List.find_opt
       (fun u -> List.length (List.filter (fun u' -> String.equal u.mid u'.mid) units) > 1)
       units
   with
  | Some u -> fail "Massign: duplicate unit %s" u.mid
  | None -> ());
  List.iter
    (fun (op : Op.t) ->
      match Dfg.Smap.find_opt op.id of_op with
      | None -> fail "Massign: operation %s is not bound" op.id
      | Some mid -> (
        match unit_by_id t mid with
        | None -> fail "Massign: operation %s bound to unknown unit %s" op.id mid
        | Some u ->
          if not (List.mem op.kind u.kinds) then
            fail "Massign: unit %s cannot perform %s (operation %s)" mid
              (Op.symbol op.kind) op.id))
    dfg.Dfg.ops;
  (* No structural hazard: one operation per unit per control step. *)
  List.iter
    (fun u ->
      let by_step =
        List.filter
          (fun (op : Op.t) -> String.equal (Dfg.Smap.find op.id of_op) u.mid)
          dfg.Dfg.ops
        |> List.map (fun (op : Op.t) -> Dfg.cstep dfg op.id)
      in
      let sorted = List.sort compare by_step in
      let rec dup = function
        | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
        | [ _ ] | [] -> None
      in
      match dup sorted with
      | Some step -> fail "Massign: unit %s used twice in control step %d" u.mid step
      | None -> ())
    units;
  t

let unit_of_op t opid =
  match Dfg.Smap.find_opt opid t.of_op with
  | None -> raise Not_found
  | Some mid -> (
    match unit_by_id t mid with Some u -> u | None -> raise Not_found)

let instances t dfg mid =
  dfg.Dfg.ops
  |> List.filter (fun (op : Op.t) -> String.equal (Dfg.Smap.find op.id t.of_op) mid)
  |> List.sort (fun (a : Op.t) (b : Op.t) ->
         compare (Dfg.cstep dfg a.id) (Dfg.cstep dfg b.id))

let temporal_multiplicity t dfg mid = List.length (instances t dfg mid)

let describe t dfg =
  let capability u =
    match u.kinds with
    | [ k ] -> Op.symbol k
    | _ -> "ALU"
  in
  let used u = temporal_multiplicity t dfg u.mid > 0 in
  let caps = List.map capability (List.filter used t.units) in
  Bistpath_util.Listx.group_by (fun c -> c) caps
  |> List.map (fun (c, l) -> Printf.sprintf "%d%s" (List.length l) c)
  |> String.concat ", "
