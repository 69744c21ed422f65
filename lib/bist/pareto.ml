module Budget = Bistpath_resilience.Budget
module Inject = Bistpath_resilience.Inject
module Telemetry = Bistpath_telemetry.Telemetry

type point = { delta_gates : int; sessions : int }

(* Points costing over 1.5x the minimum area are not worth their test time. *)
let slack_percent = 50

(* Bounds the sweep on the largest designs; reaching it is silent. *)
let leaf_cap = 20_000

(* A pair is dominated exactly when some pair has fewer gates and at
   most its sessions, or equal gates and fewer sessions. In ascending
   (gates, sessions) order the first pair of each gate count has that
   count's fewest sessions, and it survives if no pair with fewer gates
   has as few: one sweep carrying the fewest sessions seen so far. *)
let front pairs =
  let rec skip d = function (d', _) :: rest when d' = d -> skip d rest | l -> l in
  let rec sweep best = function
    | [] -> []
    | ((d, s) as p) :: rest ->
      if s < best then p :: sweep s (skip d rest) else sweep best (skip d rest)
  in
  sweep max_int (List.sort compare pairs)

(* In-bound leaves are kept as (gates, sessions) pairs, each packed into
   one int: a leaf has at most one session per unit. *)
let pair_bits = 20

module Pairs = Hashtbl.Make (Int)

let explore ?(width = 8) ?(transparency = false) ?(budget = Budget.unlimited) ?minimum dp =
  Telemetry.with_span "pareto" @@ fun () ->
  let minimum =
    match minimum with
    | Some m -> m
    | None -> Allocator.solve ~width ~transparency ~budget dp
  in
  let bound = minimum.Allocator.delta_gates * (100 + slack_percent) / 100 in
  (* One walk over the embedding product: every leaf counts against both
     [leaf_cap] and the shared budget, and one reached before either
     stops the walk probes the injection site. Leaves past the bound
     are only counted; an in-bound one is scheduled on the spot and
     its (gates, sessions) pair kept. *)
  let count = ref 0 and in_bound = ref 0 in
  let uncut () = !count <= leaf_cap && not (Budget.should_stop budget) in
  let reach () =
    incr count;
    Budget.leaf budget;
    uncut ()
    && begin
         Inject.fire "pareto.leaf";
         true
       end
  in
  let kept = Pairs.create 16 in
  Allocator.walk ~width ~transparency dp ~bound ~descend:uncut
    ~beyond:(fun () -> ignore (reach ()))
    (fun leaf ->
      if reach () then begin
        incr in_bound;
        Pairs.replace kept
          ((Allocator.leaf_gates leaf lsl pair_bits) lor Allocator.leaf_sessions leaf)
          ()
      end);
  Telemetry.incr "pareto.leaves" ~by:!count;
  Telemetry.incr "pareto.in_bound" ~by:!in_bound;
  if !count > leaf_cap then Telemetry.incr "pareto.capped";
  (* A budget that tripped during the walk voids every leaf; the true
     minimum is always included (the walk may be cut). *)
  let leaves =
    if Budget.should_stop budget then []
    else
      Pairs.fold
        (fun pair () acc -> (pair lsr pair_bits, pair land ((1 lsl pair_bits) - 1)) :: acc)
        kept []
  in
  let min_pair =
    (minimum.Allocator.delta_gates, Session.num_sessions (Session.schedule ~budget minimum))
  in
  front (min_pair :: leaves) |> List.map (fun (delta_gates, sessions) -> { delta_gates; sessions })

let pp ppf points =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf ppf "%5d gates, %d session%s@," p.delta_gates p.sessions
        (if p.sessions = 1 then "" else "s"))
    points;
  Format.fprintf ppf "@]"
