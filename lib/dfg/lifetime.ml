module Interval = Bistpath_graphs.Interval
module Chordal = Bistpath_graphs.Chordal

let span t v =
  let uses = Dfg.consumers t v in
  let birth =
    match Dfg.producer t v with
    | Some op -> Dfg.cstep t op.Op.id
    | None -> (
      match uses with
      | [] ->
        invalid_arg
          (Printf.sprintf "Lifetime.span: primary input %s is never used" v)
      | _ ->
        let first = List.fold_left (fun acc op -> min acc (Dfg.cstep t op.Op.id)) max_int uses in
        first - 1)
  in
  let death =
    match uses with
    | [] -> birth + 1
    | _ -> List.fold_left (fun acc op -> max acc (Dfg.cstep t op.Op.id)) 0 uses
  in
  { Interval.birth; death }

let spans ?(policy = Policy.default) t =
  Policy.validate t policy;
  Dfg.variables t
  |> List.filter_map (fun v ->
         if Policy.allocatable t policy v then Some (v, span t v) else None)

type indexing = { to_index : string -> int; of_index : int -> string; count : int }

let indexing_of_spans spans =
  let arr = Array.of_list (List.map fst spans) in
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace tbl v i) arr;
  {
    to_index =
      (fun v ->
        match Hashtbl.find_opt tbl v with
        | Some i -> i
        | None -> invalid_arg (Printf.sprintf "Lifetime.indexing: unknown variable %s" v));
    of_index = (fun i -> arr.(i));
    count = Array.length arr;
  }

let indexing ?(policy = Policy.default) t = indexing_of_spans (spans ~policy t)

let conflict_graph ?(policy = Policy.default) t =
  let sp = spans ~policy t in
  (Interval.graph (List.mapi (fun i (_, s) -> (i, s)) sp), indexing_of_spans sp)

let min_registers ?(policy = Policy.default) t =
  let g, _ = conflict_graph ~policy t in
  Chordal.clique_number g
