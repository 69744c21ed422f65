module Area = Bistpath_datapath.Area
module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign
module Ipath = Bistpath_ipath.Ipath
module Budget = Bistpath_resilience.Budget
module Inject = Bistpath_resilience.Inject

type point = {
  delta_gates : int;
  sessions : int;
  solution : Allocator.solution;
}

(* Points costing over 1.5x the minimum area are not worth their test time. *)
let slack_percent = 50

(* Bounds the sweep on the largest designs; reaching it is silent. *)
let leaf_cap = 20_000

(* A pair is dominated exactly when some pair has fewer gates and at
   most its sessions, or equal gates and fewer sessions. In ascending
   (gates, sessions) order the first pair of each gate count has that
   count's fewest sessions, and it survives if no pair with fewer gates
   has as few: one sweep carrying the fewest sessions seen so far. *)
let front candidates =
  let rec skip d = function (d', _) :: rest when d' = d -> skip d rest | l -> l in
  let rec sweep best = function
    | [] -> []
    | (d, s) :: rest ->
      if s < best then (d, s) :: sweep s (skip d rest) else sweep best (skip d rest)
  in
  let survivors = Hashtbl.create 16 in
  let by_pair (d, s) (d', s') = if d <> d' then Int.compare d d' else Int.compare s s' in
  List.sort_uniq by_pair (List.map (fun (d, s, _) -> (d, s)) candidates)
  |> sweep max_int
  |> List.iter (fun pair -> Hashtbl.replace survivors pair ());
  candidates
  |> List.filter (fun (d, s, _) -> Hashtbl.mem survivors (d, s))
  |> List.sort_uniq (fun (d, s, _) (d', s', _) -> compare (d, s) (d', s'))

let explore ?(model = Area.default) ?(width = 8) ?(transparency = false)
    ?(budget = Budget.unlimited) dp =
  Bistpath_telemetry.Telemetry.with_span "pareto" @@ fun () ->
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
     costed below. Every leaf counts against both [leaf_cap] and the
     shared budget here, so a leaf-budget truncation point depends only
     on the enumeration. *)
  let chosen_leaves = ref [] in
  let count = ref 0 in
  let rec enumerate chosen = function
    | [] ->
      incr count;
      Budget.leaf budget;
      if !count <= leaf_cap && not (Budget.should_stop budget) then
        chosen_leaves := chosen :: !chosen_leaves
    | es :: rest ->
      if !count <= leaf_cap && not (Budget.should_stop budget) then
        List.iter (fun e -> enumerate (e :: chosen) rest) es
  in
  enumerate [] units;
  let solution_of = Allocator.solution_of ~model ~width dp in
  let evaluate chosen =
    Inject.fire "pareto.leaf";
    let sol = solution_of chosen in
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
  front (min_point :: leaves)
  |> List.map (fun (delta_gates, sessions, solution) -> { delta_gates; sessions; solution })

let pp ppf points =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf ppf "%5d gates, %d session%s@," p.delta_gates p.sessions
        (if p.sessions = 1 then "" else "s"))
    points;
  Format.fprintf ppf "@]"
