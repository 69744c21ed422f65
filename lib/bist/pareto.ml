module Area = Bistpath_datapath.Area
module Budget = Bistpath_resilience.Budget
module Inject = Bistpath_resilience.Inject
module Telemetry = Bistpath_telemetry.Telemetry

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
    ?(budget = Budget.unlimited) ?minimum dp =
  Telemetry.with_span "pareto" @@ fun () ->
  let minimum =
    match minimum with
    | Some m -> m
    | None -> Allocator.solve ~model ~width ~transparency ~budget dp
  in
  let bound = minimum.Allocator.delta_gates * (100 + slack_percent) / 100 in
  (* One walk over the embedding product: every leaf counts against both
     [leaf_cap] and the shared budget, and a leaf reached before either
     stops the walk is costed on the spot. Only the front's points are
     built as solutions. *)
  let count = ref 0 and in_bound = ref 0 and leaves = ref [] in
  let uncut () = !count <= leaf_cap && not (Budget.should_stop budget) in
  let solution_of = Allocator.solution_of ~model ~width dp in
  Allocator.walk ~model ~width ~transparency dp ~descend:uncut (fun leaf ->
      incr count;
      Budget.leaf budget;
      if uncut () then begin
        Inject.fire "pareto.leaf";
        let gates = Allocator.leaf_gates leaf in
        if gates <= bound then begin
          incr in_bound;
          let chosen = Allocator.leaf_embeddings leaf in
          leaves := (gates, Allocator.leaf_sessions leaf, lazy (solution_of chosen)) :: !leaves
        end
      end);
  Telemetry.incr "pareto.leaves" ~by:!count;
  Telemetry.incr "pareto.in_bound" ~by:!in_bound;
  if !count > leaf_cap then Telemetry.incr "pareto.capped";
  (* A budget that tripped during the walk voids every leaf; the true
     minimum is always included (the walk may be cut). *)
  let leaves = if Budget.should_stop budget then [] else !leaves in
  let min_point =
    ( minimum.Allocator.delta_gates,
      Session.num_sessions (Session.schedule ~budget minimum),
      Lazy.from_val minimum )
  in
  front (min_point :: leaves)
  |> List.map (fun (delta_gates, sessions, solution) ->
         { delta_gates; sessions; solution = Lazy.force solution })

let pp ppf points =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf ppf "%5d gates, %d session%s@," p.delta_gates p.sessions
        (if p.sessions = 1 then "" else "s"))
    points;
  Format.fprintf ppf "@]"
