(* Tests for the area/test-time Pareto exploration. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Allocator = Bistpath_bist.Allocator
module Pareto = Bistpath_bist.Pareto
module Session = Bistpath_bist.Session
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let datapath_of tag =
  let inst = Option.get (B.by_tag tag) in
  (Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
     inst.B.dfg inst.B.massign ~policy:inst.B.policy)
    .Flow.datapath

let front_nonempty_and_sorted () =
  let points = Pareto.explore (datapath_of "ex1") in
  check Alcotest.bool "non-empty" true (points <> []);
  let deltas = List.map (fun p -> p.Pareto.delta_gates) points in
  check (Alcotest.list Alcotest.int) "sorted by gates" (List.sort compare deltas) deltas

let front_contains_minimum () =
  let dp = datapath_of "ex1" in
  let minimum = Allocator.solve dp in
  let points = Pareto.explore dp in
  check Alcotest.int "cheapest point = minimum"
    minimum.Allocator.delta_gates
    (List.hd points).Pareto.delta_gates

let front_nondominated () =
  List.iter
    (fun tag ->
      let points = Pareto.explore (datapath_of tag) in
      Bistpath_util.Listx.pairs points
      |> List.iter (fun (a, b) ->
             let dominates x y =
               x.Pareto.delta_gates <= y.Pareto.delta_gates
               && x.Pareto.sessions <= y.Pareto.sessions
               && (x.Pareto.delta_gates < y.Pareto.delta_gates
                  || x.Pareto.sessions < y.Pareto.sessions)
             in
             if dominates a b || dominates b a then
               Alcotest.failf "%s: dominated point on the front" tag))
    [ "ex1"; "ex2"; "Paulin" ]

let front_sessions_decrease () =
  (* along increasing gates, sessions must strictly decrease (otherwise
     the point would be dominated) *)
  let points = Pareto.explore (datapath_of "Paulin") in
  let sessions = List.map (fun p -> p.Pareto.sessions) points in
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  check Alcotest.bool "strictly decreasing sessions" true (strictly_decreasing sessions)

let points_internally_consistent () =
  let points = Pareto.explore (datapath_of "ex2") in
  List.iter
    (fun p ->
      check Alcotest.int "recomputed sessions match" p.Pareto.sessions
        (Session.num_sessions (Session.schedule p.Pareto.solution));
      check Alcotest.int "recorded delta matches solution" p.Pareto.delta_gates
        p.Pareto.solution.Allocator.delta_gates)
    points

let ex1_known_front () =
  (* minimum 80 gates needs 2 sessions (shared CBILBO SA); 1 session is
     reachable by splitting the signature analyzers *)
  let points = Pareto.explore (datapath_of "ex1") in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "(gates, sessions) front"
    [ (80, 2); (112, 1) ]
    (List.map (fun p -> (p.Pareto.delta_gates, p.Pareto.sessions)) points)

let prop_front_valid_random =
  QCheck.Test.make ~name:"Pareto front valid on random instances" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:8 ~inputs:3 in
      let r =
        Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
          inst.B.dfg inst.B.massign ~policy:inst.B.policy
      in
      let points = Pareto.explore r.Flow.datapath in
      let minimum = Allocator.solve r.Flow.datapath in
      points <> []
      && (List.hd points).Pareto.delta_gates = minimum.Allocator.delta_gates
      && List.for_all (fun p -> p.Pareto.sessions >= 1) points)

(* Few distinct (gates, sessions) pairs among many candidates, as on
   fir8 (20,001 candidates, 3 front points): each payload is a fresh
   block, so the sweep must keep the very candidates the quadratic
   filter keeps. *)
let prop_front_matches_quadratic_filter =
  QCheck.Test.make ~name:"sweep keeps the quadratic filter's candidates" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400) (pair (int_bound 15) (int_range 1 6)))
    (fun pairs ->
      let candidates = List.mapi (fun i (d, s) -> (d, s, ref i)) pairs in
      let got = Pareto.front candidates and want = Oracles.pareto_front candidates in
      List.length got = List.length want && List.for_all2 ( == ) got want)

let explore_span () =
  let dp = datapath_of "ex1" in
  let (), t =
    Bistpath_telemetry.Telemetry.collect (fun () -> ignore (Pareto.explore dp))
  in
  check (Alcotest.list Alcotest.string) "one root span" [ "pareto" ]
    (List.filter_map
       (fun (s : Bistpath_telemetry.Telemetry.span) ->
         if s.depth = 0 then Some s.name else None)
       (Bistpath_telemetry.Telemetry.spans t))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "front non-empty, sorted" front_nonempty_and_sorted;
    case "front contains the minimum" front_contains_minimum;
    case "front non-dominated" front_nondominated;
    case "sessions strictly decrease along the front" front_sessions_decrease;
    case "points internally consistent" points_internally_consistent;
    case "ex1 known front" ex1_known_front;
    case "explore runs in a pareto span" explore_span;
  ]
  @ qcheck [ prop_front_valid_random; prop_front_matches_quadratic_filter ]
