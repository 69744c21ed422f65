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

type lines = { op_lines : int list; input_lines : int list; output_lines : int list }

let diagnostics ?max_errors ?lines t =
  let coll = Diagnostic.collector ?max_errors () in
  let err ?line fmt =
    Format.kasprintf (fun m -> Diagnostic.emit coll (Diagnostic.error ?line m)) fmt
  in
  let line_of get i = Option.bind lines (fun l -> List.nth_opt (get l) i) in
  let op_line = line_of (fun l -> l.op_lines) in
  let input_line = line_of (fun l -> l.input_lines) in
  let output_line = line_of (fun l -> l.output_lines) in
  (* Report each duplicated element once, at its first occurrence,
     scanning positions in order — so the first diagnostic is exactly
     the one the first-error path used to raise. Its line is that of
     the second occurrence, the one that duplicates it. *)
  let dup_once l report =
    let seen = Hashtbl.create 16 in
    List.iteri
      (fun i x ->
        if not (Hashtbl.mem seen x) then begin
          Hashtbl.replace seen x ();
          let rec second j = function
            | [] -> ()
            | y :: rest -> if j > i && String.equal x y then report j x else second (j + 1) rest
          in
          second 0 l
        end)
      l
  in
  (* a pin or port declared twice: the evaluator would keep an input's
     last binding and the interpreter its first, and the emitted module
     would declare the port twice *)
  dup_once t.inputs (fun i v ->
      err ?line:(input_line i) "Dfg %s: primary input %s is declared twice" t.name v);
  dup_once t.outputs (fun i v ->
      err ?line:(output_line i) "Dfg %s: primary output %s is declared twice" t.name v);
  let ids = List.map (fun (op : Op.t) -> op.id) t.ops in
  dup_once ids (fun i id ->
      err ?line:(op_line i) "Dfg %s: duplicate operation id %s" t.name id);
  let produced = List.map (fun (op : Op.t) -> op.out) t.ops in
  dup_once produced (fun i v ->
      err ?line:(op_line i) "Dfg %s: variable %s produced by two operations" t.name v);
  List.iteri
    (fun i v ->
      if List.mem v t.inputs then
        err ?line:(op_line i) "Dfg %s: primary input %s is also an operation result" t.name
          v)
    produced;
  let defined = Sset.union (Sset.of_list t.inputs) (Sset.of_list produced) in
  List.iteri
    (fun i (op : Op.t) ->
      List.iter
        (fun v ->
          if not (Sset.mem v defined) then
            err ?line:(op_line i) "Dfg %s: operand %s of %s is undefined" t.name v op.id)
        [ op.left; op.right ])
    t.ops;
  List.iteri
    (fun i v ->
      if not (Sset.mem v defined) then
        err ?line:(output_line i) "Dfg %s: primary output %s is undefined" t.name v
      else if List.mem v t.inputs && consumers t v = [] then
        err ?line:(output_line i) "Dfg %s: primary output %s is an input no operation reads"
          t.name v)
    t.outputs;
  List.iteri
    (fun i (op : Op.t) ->
      match Smap.find_opt op.id t.schedule with
      | None -> err ?line:(op_line i) "Dfg %s: operation %s is not scheduled" t.name op.id
      | Some c when c < 1 ->
        err ?line:(op_line i) "Dfg %s: operation %s has control step %d < 1" t.name op.id c
      | Some _ -> ())
    t.ops;
  (* Data dependencies: a producer must finish strictly before any use;
     this also rules out cycles since csteps strictly increase along
     every path. Unlike the first-error path, accumulation reaches this
     stage with unscheduled operations still present (reported above),
     so comparisons are restricted to scheduled pairs. *)
  let step id = Smap.find_opt id t.schedule in
  List.iteri
    (fun i (op : Op.t) ->
      List.iter
        (fun v ->
          match producer t v with
          | Some p -> (
            match (step p.id, step op.id) with
            | Some pc, Some oc when pc >= oc ->
              err ?line:(op_line i) "Dfg %s: %s reads %s before %s produces it" t.name op.id
                v p.id
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

let make_diags ?max_errors ?lines ~name ~ops ~inputs ~outputs ~schedule () =
  let schedule =
    List.fold_left (fun m (id, c) -> Smap.add id c m) Smap.empty schedule
  in
  let t = { name; ops; inputs; outputs; schedule } in
  match diagnostics ?max_errors ?lines t with [] -> Ok t | ds -> Error ds

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
