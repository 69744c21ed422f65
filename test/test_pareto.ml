(* Tests for the area/test-time Pareto exploration. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Allocator = Bistpath_bist.Allocator
module Pareto = Bistpath_bist.Pareto
module Session = Bistpath_bist.Session
module Prng = Bistpath_util.Prng
module Budget = Bistpath_resilience.Budget
module Telemetry = Bistpath_telemetry.Telemetry
module Runner = Bistpath_service.Runner
module Job = Bistpath_service.Job

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

let pairs points = List.map (fun p -> (p.Pareto.delta_gates, p.Pareto.sessions)) points
let oracle_pairs points = List.map (fun (d, s, _) -> (d, s)) points

(* Every printed point is achieved: the collect-then-cost oracle finds
   the same pairs, each with a solution that schedules to its sessions. *)
let points_internally_consistent () =
  let dp = datapath_of "ex2" in
  let oracle = Oracles.pareto_explore dp in
  check
    Alcotest.(list (pair int int))
    "oracle's pairs" (oracle_pairs oracle)
    (pairs (Pareto.explore dp));
  List.iter
    (fun (_, sessions, sol) ->
      check Alcotest.int "recomputed sessions match" sessions
        (Session.num_sessions (Session.schedule sol)))
    oracle

let ex1_known_front () =
  (* minimum 80 gates needs 2 sessions (shared CBILBO SA); 1 session is
     reachable by splitting the signature analyzers *)
  let points = Pareto.explore (datapath_of "ex1") in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "(gates, sessions) front"
    [ (80, 2); (112, 1) ]
    (pairs points)

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
   fir8 (20,001 candidates, 3 front points). *)
let prop_front_matches_quadratic_filter =
  QCheck.Test.make ~name:"sweep keeps the quadratic filter's candidates" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400) (pair (int_bound 15) (int_range 1 6)))
    (fun candidates ->
      Pareto.front candidates
      = oracle_pairs (Oracles.pareto_front (List.map (fun (d, s) -> (d, s, ())) candidates)))

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

(* test/fixtures/pareto_fronts.txt pins every design's printed front in
   both flows at widths 8 and 4 and with transparent I-paths, as a
   [pareto] job renders it (the CLI's and serve's one path). It was
   recorded with the collect-then-cost sweep; CI diffs the CLI's
   non-transparency blocks against it too. *)
let job ?(width = 8) ?(transparency = false) pipeline spec flow =
  { Job.id = "t"; spec; pipeline; width; flow; transparency; patterns = 255;
    timeout_s = None; leaf_budget = None }

(* Data files are read from the test directory's parent. *)
let path spec = if B.by_tag spec = None then Filename.concat ".." spec else spec

let execute job =
  match Runner.execute ~budget:Budget.unlimited job with
  | Ok (text, _) -> text
  | Error _ -> Alcotest.failf "%s (%s) failed" job.Job.spec job.Job.flow

let render_fronts () =
  List.concat_map
    (fun spec ->
      List.concat_map
        (fun flow ->
          List.map
            (fun (width, transparency) ->
              Printf.sprintf "== %s %s w%d%s\n" spec flow width
                (if transparency then " transparency" else "")
              ^ execute (job ~width ~transparency Job.Pareto (path spec) flow))
            [ (8, false); (4, false); (8, true) ])
        [ "traditional"; "testable" ])
    Test_regalloc_trace.(tags @ data)
  |> String.concat ""

let fronts_reproduce_fixture () =
  let expected =
    In_channel.with_open_text (Filename.concat "fixtures" "pareto_fronts.txt")
      In_channel.input_all
  in
  Test_regalloc_trace.first_diff 1
    (String.split_on_char '\n' expected, String.split_on_char '\n' (render_fronts ()))

(* test/fixtures/pareto_counts.tsv pins the sweep's counters for the
   same jobs as the fronts fixture (every design, both flows, widths 8
   and 4, and transparency at width 8): leaves walked, leaves within
   the slack bound and whether the cap cut the walk. It was recorded
   before the walk went count-only past the bound, which must not move
   a count. *)
let render_counts () =
  List.concat_map
    (fun spec ->
      List.concat_map
        (fun flow ->
          List.map
            (fun (width, transparency) ->
              let (), t =
                Telemetry.collect (fun () ->
                    ignore (execute (job ~width ~transparency Job.Pareto (path spec) flow)))
              in
              String.concat "\t"
                ([ spec; flow; Printf.sprintf "w%d%s" width (if transparency then "t" else "") ]
                @ List.map
                    (fun c -> string_of_int (Telemetry.counter t c))
                    [ "pareto.leaves"; "pareto.in_bound"; "pareto.capped" ])
              ^ "\n")
            [ (8, false); (4, false); (8, true) ])
        [ "traditional"; "testable" ])
    Test_regalloc_trace.(tags @ data)
  |> String.concat ""

let counts_reproduce_fixture () =
  let expected =
    In_channel.with_open_text (Filename.concat "fixtures" "pareto_counts.tsv")
      In_channel.input_all
  in
  Test_regalloc_trace.first_diff 1
    (String.split_on_char '\n' expected, String.split_on_char '\n' (render_counts ()))

(* The minimum is always on the front, so a transparency pareto job
   starts at the delta gates its run job reports. *)
let transparency_front_starts_at_minimum () =
  let first_int format text =
    String.split_on_char '\n' text
    |> List.find_map (fun line -> Scanf.sscanf_opt line format Fun.id)
  in
  List.iter
    (fun spec ->
      List.iter
        (fun flow ->
          let run = execute (job ~transparency:true Job.Run spec flow) in
          let front = execute (job ~transparency:true Job.Pareto spec flow) in
          check Alcotest.(option int) (spec ^ " " ^ flow)
            (first_int " delta gates: %d" run) (first_int " %d gates" front))
        [ "traditional"; "testable" ])
    Test_regalloc_trace.tags

(* Counters: [pareto.leaves] counts every enumerated leaf (ewf testable
   stops just past the cap, like the budget's leaf count),
   [pareto.capped] says the cap cut the walk and [pareto.in_bound]
   counts the leaves costed within the slack bound. *)
let sweep_counters () =
  let counters tag =
    let (), t =
      Telemetry.collect (fun () -> ignore (Pareto.explore (datapath_of tag)))
    in
    List.map (Telemetry.counter t) [ "pareto.leaves"; "pareto.in_bound"; "pareto.capped" ]
  in
  (match counters "ewf" with
  | [ leaves; in_bound; capped ] ->
    check Alcotest.int "ewf leaves" 20_016 leaves;
    check Alcotest.int "ewf capped" 1 capped;
    (* none of the first 20,000 combinations is within the slack bound:
       the capped front is the minimum alone *)
    check Alcotest.int "ewf in bound" 0 in_bound
  | _ -> assert false);
  match counters "ex1" with
  | [ leaves; in_bound; capped ] ->
    check Alcotest.bool "ex1 leaves" true (leaves > 0 && leaves < 20_000);
    check Alcotest.bool "ex1 in bound" true (in_bound > 0 && in_bound <= leaves);
    check Alcotest.int "ex1 not capped" 0 capped
  | _ -> assert false

let random_datapath seed testable =
  let rng = Prng.create seed in
  let inst = B.random rng ~ops:(6 + (seed mod 7)) ~inputs:3 in
  let style =
    if testable then Flow.Testable Bistpath_core.Testable_alloc.default_options
    else Flow.Traditional
  in
  (Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy).Flow.datapath

(* The one-walk sweep against the collect-then-cost sweep it replaced
   (Oracles.pareto_explore): the same (gates, sessions) points, and the
   same leaf count, with a roomy budget and with one that trips
   partway through the enumeration, whichever order the units come in. *)
let prop_explore_matches_oracle =
  QCheck.Test.make ~name:"one-walk sweep matches the collect-then-cost oracle" ~count:40
    QCheck.(
      pair (triple (int_bound 100_000) bool bool)
        (* a leaf budget in 1..40 that also shrinks within it *)
        (triple bool bool
           (set_print string_of_int (map ~rev:(fun b -> b - 1) (fun k -> k + 1) (int_bound 39)))))
    (fun ((seed, testable, transparency), (narrow, reversed, leaf_budget)) ->
      let dp = random_datapath seed testable in
      (* Reversed, the units are walked out of unit id (session) order. *)
      let dp =
        if reversed then
          { dp with massign = { dp.massign with units = List.rev dp.massign.units } }
        else dp
      in
      let width = if narrow then 4 else 8 in
      let agree make_budget =
        let sweep explore =
          let budget = make_budget () in
          let points = explore budget in
          (points, Budget.leaves budget, Budget.stop_reason budget)
        in
        sweep (fun budget -> pairs (Pareto.explore ~width ~transparency ~budget dp))
        = sweep (fun budget ->
              oracle_pairs (Oracles.pareto_explore ~width ~transparency ~budget dp))
      in
      agree (fun () -> Budget.create ~leaf_budget:10_000_000 ())
      && agree (fun () -> Budget.create ~leaf_budget ()))

(* [Session.schedule] through the int kernel groups every front point's
   (as the oracle sweep builds it) and every minimum's units as the
   string-keyed conflict graph did. *)
let prop_schedule_matches_oracle =
  QCheck.Test.make ~name:"session kernel schedules as the conflict-graph oracle" ~count:40
    QCheck.(triple (int_bound 100_000) bool bool)
    (fun (seed, testable, transparency) ->
      let dp = random_datapath seed testable in
      Allocator.solve ~transparency dp
      :: List.map (fun (_, _, sol) -> sol) (Oracles.pareto_explore ~transparency dp)
      |> List.for_all (fun sol ->
             (Session.schedule sol).Session.sessions
             = (Oracles.session_schedule sol).Session.sessions))

(* Callers that ran the flow pass its solution as the minimum; the
   front is the one [explore] finds when it solves the minimum itself. *)
let flow_minimum_same_front () =
  List.iter
    (fun tag ->
      let inst = Option.get (B.by_tag tag) in
      let r =
        Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
          inst.B.dfg inst.B.massign ~policy:inst.B.policy
      in
      check
        Alcotest.(list (pair int int))
        tag
        (pairs (Pareto.explore r.Flow.datapath))
        (pairs (Pareto.explore ~minimum:r.Flow.bist r.Flow.datapath)))
    B.all_tags

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
  @ [
      case "fronts reproduce the fixture" fronts_reproduce_fixture;
      case "sweep counters reproduce the fixture" counts_reproduce_fixture;
      case "transparency fronts start at the run minimum"
        transparency_front_starts_at_minimum;
      case "sweep counters" sweep_counters;
      case "the flow's minimum gives the same front" flow_minimum_same_front;
    ]
  @ qcheck [ prop_explore_matches_oracle; prop_schedule_matches_oracle ]
