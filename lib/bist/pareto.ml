module Area = Bistpath_datapath.Area
module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign
module Ipath = Bistpath_ipath.Ipath
module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Outcome = Bistpath_resilience.Outcome
module Inject = Bistpath_resilience.Inject

type point = {
  delta_gates : int;
  sessions : int;
  solution : Allocator.solution;
}

let solution_of dp model width embeddings =
  let tbl = Hashtbl.create 16 in
  let push rid role =
    Hashtbl.replace tbl rid
      (role :: (match Hashtbl.find_opt tbl rid with Some l -> l | None -> []))
  in
  List.iter
    (fun (e : Ipath.embedding) ->
      push e.l_tpg (Resource.Generates e.mid);
      push e.r_tpg (Resource.Generates e.mid);
      push e.sa (Resource.Compacts e.mid))
    embeddings;
  let styles =
    List.map
      (fun (r : Datapath.reg) ->
        let roles = match Hashtbl.find_opt tbl r.rid with Some l -> l | None -> [] in
        (r.rid, Resource.style_of_roles roles))
      dp.Datapath.regs
  in
  let delta =
    Bistpath_util.Listx.sum_by
      (fun (_, s) -> Resource.delta_gates model ~width s)
      styles
  in
  {
    Allocator.embeddings =
      List.sort (fun (a : Ipath.embedding) b -> compare a.mid b.mid) embeddings;
    styles;
    untestable = [];
    delta_gates = delta;
    exact = true;
  }

let explore_outcome ?(model = Area.default) ?(width = 8) ?(transparency = false)
    ?(slack_percent = 50) ?(leaf_budget = 20_000) ?(budget = Budget.unlimited) dp =
  let minimum = Allocator.solve ~model ~width ~transparency ~budget dp in
  let bound = minimum.Allocator.delta_gates * (100 + slack_percent) / 100 in
  let units =
    dp.Datapath.massign.Massign.units
    |> List.filter (fun (u : Massign.hw) ->
           Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
    |> List.filter_map (fun (u : Massign.hw) ->
           match Ipath.embeddings ~transparency dp u.mid with
           | [] -> None
           | es -> Some es)
  in
  (* Enumerating the embedding combinations is cheap (cons cells only);
     the leaves are collected first, in reverse enumeration order, and
     costed below. Every leaf counts against both the local quota and
     the shared budget here, so a leaf-budget truncation point depends
     only on the enumeration. *)
  let chosen_leaves = ref [] in
  let count = ref 0 in
  let rec enumerate chosen = function
    | [] ->
      incr count;
      Budget.leaf budget;
      if !count <= leaf_budget && not (Budget.should_stop budget) then
        chosen_leaves := chosen :: !chosen_leaves
    | es :: rest ->
      if !count <= leaf_budget && not (Budget.should_stop budget) then
        List.iter (fun e -> enumerate (e :: chosen) rest) es
  in
  enumerate [] units;
  let evaluate chosen =
    Inject.fire "pareto.leaf";
    let sol = solution_of dp model width chosen in
    if sol.Allocator.delta_gates <= bound then
      Some
        ( sol.Allocator.delta_gates,
          Session.num_sessions (Session.schedule ~budget sol),
          sol )
    else None
  in
  (* Costing polls the budget before each leaf, so a deadline that trips
     mid-evaluation abandons the remaining leaves. *)
  let leaves =
    Budget.map budget evaluate !chosen_leaves |> List.filter_map Option.join
  in
  (* Always include the true minimum (the enumeration may be cut). *)
  let min_point =
    ( minimum.Allocator.delta_gates,
      Session.num_sessions (Session.schedule ~budget minimum),
      minimum )
  in
  let candidates = min_point :: leaves in
  let dominated (d, s, _) =
    List.exists
      (fun (d', s', _) -> d' <= d && s' <= s && (d' < d || s' < s))
      candidates
  in
  let points =
    candidates
    |> List.filter (fun p -> not (dominated p))
    |> List.sort_uniq (fun (d, s, _) (d', s', _) -> compare (d, s) (d', s'))
    |> List.map (fun (delta_gates, sessions, solution) -> { delta_gates; sessions; solution })
  in
  match Budget.stop_reason budget with
  | Some r -> Outcome.Degraded (points, r)
  | None ->
    if !count > leaf_budget then Outcome.Degraded (points, Cancel.Leaf_budget leaf_budget)
    else Outcome.Complete points

let explore ?model ?width ?transparency ?slack_percent ?leaf_budget ?budget dp =
  Outcome.value
    (explore_outcome ?model ?width ?transparency ?slack_percent ?leaf_budget ?budget dp)

let pp ppf points =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf ppf "%5d gates, %d session%s@," p.delta_gates p.sessions
        (if p.sessions = 1 then "" else "s"))
    points;
  Format.fprintf ppf "@]"
