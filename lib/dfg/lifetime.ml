module Interval = Bistpath_graphs.Interval
module Chordal = Bistpath_graphs.Chordal

(* A variable's span from its producer's step, if an operation produces
   it, and its readers' steps. *)
let span_of v ~made ~reads =
  let birth =
    match made with
    | Some step -> step
    | None -> (
      match reads with
      | [] ->
        invalid_arg
          (Printf.sprintf "Lifetime.span: primary input %s is never used" v)
      | _ -> List.fold_left min max_int reads - 1)
  in
  let death = match reads with [] -> birth + 1 | _ -> List.fold_left max 0 reads in
  { Interval.birth; death }

let span t v =
  let step (op : Op.t) = Dfg.cstep t op.id in
  span_of v ~made:(Option.map step (Dfg.producer t v)) ~reads:(List.map step (Dfg.consumers t v))

(* Producers and readers of every variable from one pass over the
   operations. *)
let spans ?(policy = Policy.default) t =
  Policy.validate t policy;
  let made = Hashtbl.create 64 and reads = Hashtbl.create 64 in
  List.iter
    (fun (op : Op.t) ->
      let step = Dfg.cstep t op.id in
      if not (Hashtbl.mem made op.out) then Hashtbl.add made op.out step;
      let read v =
        Hashtbl.replace reads v (step :: Option.value ~default:[] (Hashtbl.find_opt reads v))
      in
      read op.left;
      if op.right <> op.left then read op.right)
    t.ops;
  Dfg.variables t
  |> List.filter_map (fun v ->
         let made = Hashtbl.find_opt made v
         and reads = Option.value ~default:[] (Hashtbl.find_opt reads v) in
         if Policy.allocatable policy ~produced:(made <> None) ~read:(reads <> []) v then
           Some (v, span_of v ~made ~reads)
         else None)

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

let conflict_graph_of_spans sp =
  (Interval.graph (List.mapi (fun i (_, s) -> (i, s)) sp), indexing_of_spans sp)

let conflict_graph ?(policy = Policy.default) t = conflict_graph_of_spans (spans ~policy t)

let min_registers ?(policy = Policy.default) t =
  let g, _ = conflict_graph ~policy t in
  Chordal.clique_number g
