module Smap = Map.Make (String)
module Sset = Set.Make (String)
module Diagnostic = Bistpath_resilience.Diagnostic

type t = {
  name : string;
  ops : Op.t list;
  inputs : string list;
  outputs : string list;
  schedule : int Smap.t;
}

let variables t =
  let add set v = Sset.add v set in
  let set = List.fold_left add Sset.empty t.inputs in
  let set =
    List.fold_left
      (fun set (op : Op.t) -> add (add (add set op.left) op.right) op.out)
      set t.ops
  in
  Sset.elements set

let producer t v = List.find_opt (fun (op : Op.t) -> String.equal op.out v) t.ops

let consumers t v =
  List.filter (fun (op : Op.t) -> String.equal op.left v || String.equal op.right v) t.ops

let used_inputs t = List.filter (fun v -> consumers t v <> []) t.inputs

let cstep t id =
  match Smap.find_opt id t.schedule with Some c -> c | None -> raise Not_found

let op_by_id t id = List.find_opt (fun (op : Op.t) -> String.equal op.id id) t.ops

let num_csteps t = Smap.fold (fun _ c acc -> max acc c) t.schedule 0

let ops_in_step t step = List.filter (fun (op : Op.t) -> cstep t op.id = step) t.ops

let diagnostics ?max_errors t =
  let coll = Diagnostic.collector ?max_errors () in
  let err fmt = Format.kasprintf (fun m -> Diagnostic.emit coll (Diagnostic.error m)) fmt in
  (* Report each duplicated element once, at its first occurrence,
     scanning positions in order — so the first diagnostic is exactly
     the one the first-error path used to raise. *)
  let dup_once l report =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun x ->
        if
          (not (Hashtbl.mem seen x))
          && List.length (List.filter (String.equal x) l) > 1
        then begin
          Hashtbl.replace seen x ();
          report x
        end)
      l
  in
  let ids = List.map (fun (op : Op.t) -> op.id) t.ops in
  dup_once ids (fun id -> err "Dfg %s: duplicate operation id %s" t.name id);
  let produced = List.map (fun (op : Op.t) -> op.out) t.ops in
  dup_once produced (fun v -> err "Dfg %s: variable %s produced by two operations" t.name v);
  List.iter
    (fun v ->
      if List.mem v t.inputs then
        err "Dfg %s: primary input %s is also an operation result" t.name v)
    produced;
  let defined = Sset.union (Sset.of_list t.inputs) (Sset.of_list produced) in
  List.iter
    (fun (op : Op.t) ->
      List.iter
        (fun v ->
          if not (Sset.mem v defined) then
            err "Dfg %s: operand %s of %s is undefined" t.name v op.id)
        [ op.left; op.right ])
    t.ops;
  List.iter
    (fun v ->
      if not (Sset.mem v defined) then
        err "Dfg %s: primary output %s is undefined" t.name v
      else if List.mem v t.inputs && consumers t v = [] then
        err "Dfg %s: primary output %s is an input no operation reads" t.name v)
    t.outputs;
  List.iter
    (fun (op : Op.t) ->
      match Smap.find_opt op.id t.schedule with
      | None -> err "Dfg %s: operation %s is not scheduled" t.name op.id
      | Some c when c < 1 -> err "Dfg %s: operation %s has control step %d < 1" t.name op.id c
      | Some _ -> ())
    t.ops;
  (* Data dependencies: a producer must finish strictly before any use;
     this also rules out cycles since csteps strictly increase along
     every path. Unlike the first-error path, accumulation reaches this
     stage with unscheduled operations still present (reported above),
     so comparisons are restricted to scheduled pairs. *)
  let step id = Smap.find_opt id t.schedule in
  List.iter
    (fun (op : Op.t) ->
      List.iter
        (fun v ->
          match producer t v with
          | Some p -> (
            match (step p.id, step op.id) with
            | Some pc, Some oc when pc >= oc ->
              err "Dfg %s: %s reads %s before %s produces it" t.name op.id v p.id
            | _ -> ())
          | None -> ())
        [ op.left; op.right ])
    t.ops;
  Diagnostic.all coll

let validate t =
  match
    List.find_opt
      (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error)
      (diagnostics t)
  with
  | Some d -> invalid_arg d.Diagnostic.message
  | None -> ()

let make ~name ~ops ~inputs ~outputs ~schedule =
  let schedule =
    List.fold_left (fun m (id, c) -> Smap.add id c m) Smap.empty schedule
  in
  let t = { name; ops; inputs; outputs; schedule } in
  validate t;
  t

let make_diags ?max_errors ~name ~ops ~inputs ~outputs ~schedule () =
  let schedule =
    List.fold_left (fun m (id, c) -> Smap.add id c m) Smap.empty schedule
  in
  let t = { name; ops; inputs; outputs; schedule } in
  match diagnostics ?max_errors t with [] -> Ok t | ds -> Error ds

let kind_counts t =
  Op.all_kinds
  |> List.filter_map (fun k ->
         match List.length (List.filter (fun (op : Op.t) -> op.kind = k) t.ops) with
         | 0 -> None
         | n -> Some (k, n))

let pp ppf t =
  Format.fprintf ppf "@[<v>DFG %s  (inputs: %s; outputs: %s)@," t.name
    (String.concat " " t.inputs)
    (String.concat " " t.outputs);
  for step = 1 to num_csteps t do
    Format.fprintf ppf "  step %d:" step;
    List.iter (fun op -> Format.fprintf ppf "  [%a]" Op.pp op) (ops_in_step t step);
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
