(* Tests for minimum interconnect assignment (Section IV): orientation
   optimization, IR^LR sets, SD-weighted tie-breaking. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module B = Bistpath_benchmarks.Benchmarks
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Interconnect = Bistpath_datapath.Interconnect
module Prng = Bistpath_util.Prng
module Listx = Bistpath_util.Listx
module Telemetry = Bistpath_telemetry.Telemetry
module Flow = Bistpath_core.Flow

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let no_weight = { Interconnect.weight = (fun _ -> 0) }

let total_connections dp =
  Listx.sum_by
    (fun (u : Massign.hw) ->
      let l, r = Datapath.unit_port_sources dp u.mid in
      List.length l + List.length r)
    dp.Datapath.massign.Massign.units

(* Brute force over all orientation functions for small instances. *)
let brute_force_min dfg massign ra policy =
  let commutative_ops =
    List.filter (fun (o : Op.t) -> Op.commutative o.kind) dfg.Dfg.ops
    |> List.map (fun (o : Op.t) -> o.id)
  in
  let n = List.length commutative_ops in
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let swap opid =
      match Listx.index_of (String.equal opid) commutative_ops with
      | Some i -> mask land (1 lsl i) <> 0
      | None -> false
    in
    let dp = Datapath.build dfg massign ra ~policy ~swap in
    best := min !best (total_connections dp)
  done;
  !best

let optimizer_matches_brute_force tag =
  match B.by_tag tag with
  | None -> Alcotest.fail tag
  | Some inst ->
    let ra = Bistpath_core.Traditional_alloc.allocate inst.B.dfg ~policy:inst.B.policy in
    let dp =
      Interconnect.optimize inst.B.dfg inst.B.massign ra ~policy:inst.B.policy
        ~objective:no_weight
    in
    check Alcotest.int
      (tag ^ " minimal connections")
      (brute_force_min inst.B.dfg inst.B.massign ra inst.B.policy)
      (total_connections dp)

let paper_benchmarks_minimal () =
  List.iter optimizer_matches_brute_force [ "ex1"; "ex2"; "Tseng1"; "Tseng2"; "Paulin" ]

let lr_registers_reported () =
  (* construct a unit that must feed one register to both ports:
     +1: a+b, +2: b+c with everything in separate registers except that
     b appears once left, once right under any orientation of only one
     op... make ops share register pairs so LR is forced. *)
  let ops =
    [
      { Op.id = "+1"; kind = Op.Add; left = "a"; right = "b"; out = "u" };
      { Op.id = "+2"; kind = Op.Add; left = "b2"; right = "a2"; out = "v" };
    ]
  in
  let dfg =
    Dfg.make ~name:"lr" ~ops ~inputs:[ "a"; "b"; "a2"; "b2" ] ~outputs:[ "u"; "v" ]
      ~schedule:[ ("+1", 1); ("+2", 2) ]
  in
  let massign =
    Massign.make dfg
      ~units:[ { mid = "ADD"; kinds = [ Op.Add ] } ]
      ~bind:[ ("+1", "ADD"); ("+2", "ADD") ]
  in
  (* a,a2 share R1; b,b2 share R2: orientations can align them so that
     L={R1}, R={R2} with zero LR registers *)
  let ra = Regalloc.make [ ("R1", [ "a"; "a2" ]); ("R2", [ "b"; "b2" ]); ("R3", [ "u"; "v" ]) ] in
  let dp = Interconnect.optimize dfg massign ra ~policy:Policy.default ~objective:no_weight in
  check (Alcotest.list Alcotest.string) "no LR register" []
    (let l, r = Datapath.unit_port_sources dp "ADD" in
     List.filter (fun x -> List.mem x r) l);
  check Alcotest.int "2 connections" 2 (total_connections dp)

let weight_steers_lr () =
  (* one unit, ops (a,b) and (a,c): register of a inevitably appears on
     some port twice; with 3 distinct registers the min-connection
     solutions differ in which register lands on both ports. Weighting
     must pick the weighted one when it does not cost connections. *)
  let ops =
    [
      { Op.id = "+1"; kind = Op.Add; left = "a"; right = "b"; out = "u" };
      { Op.id = "+2"; kind = Op.Add; left = "a2"; right = "c"; out = "v" };
    ]
  in
  let dfg =
    Dfg.make ~name:"w" ~ops ~inputs:[ "a"; "b"; "a2"; "c" ] ~outputs:[ "u"; "v" ]
      ~schedule:[ ("+1", 1); ("+2", 2) ]
  in
  let massign =
    Massign.make dfg
      ~units:[ { mid = "ADD"; kinds = [ Op.Add ] } ]
      ~bind:[ ("+1", "ADD"); ("+2", "ADD") ]
  in
  let ra =
    Regalloc.make [ ("RA", [ "a"; "a2" ]); ("RB", [ "b"; "c" ]); ("RC", [ "u"; "v" ]) ]
  in
  (* both (RA->L, RB->R) and (RA->R, RB->L) and the mixed orientations
     with RA on both ports have >= 2 connections; minimal keeps RA and RB
     on fixed sides (2 connections, no LR). Now make LR valuable enough:
     it cannot beat fewer connections, so LR stays empty; instead check
     the tie case directly via score equality of symmetric solutions. *)
  let dp =
    Interconnect.optimize dfg massign ra ~policy:Policy.default
      ~objective:{ Interconnect.weight = (fun rid -> if rid = "RA" then 10 else 0) }
  in
  check Alcotest.int "still minimal connections" 2 (total_connections dp)

let hill_climb_reasonable_on_large () =
  (* ewf's adders have > 12 commutative instances, taking the greedy
     path; the result must not be worse than the identity orientation. *)
  let inst = Option.get (B.by_tag "ewf") in
  let ra = Bistpath_core.Traditional_alloc.allocate inst.B.dfg ~policy:inst.B.policy in
  let dp =
    Interconnect.optimize inst.B.dfg inst.B.massign ra ~policy:inst.B.policy
      ~objective:no_weight
  in
  let identity =
    Datapath.build inst.B.dfg inst.B.massign ra ~policy:inst.B.policy ~swap:(fun _ -> false)
  in
  check Alcotest.bool "no worse than identity" true
    (total_connections dp <= total_connections identity)

let prop_optimize_no_worse_than_identity =
  QCheck.Test.make ~name:"optimized connections <= identity orientation" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:4 in
      let ra = Bistpath_core.Traditional_alloc.allocate inst.B.dfg ~policy:inst.B.policy in
      let dp =
        Interconnect.optimize inst.B.dfg inst.B.massign ra ~policy:inst.B.policy
          ~objective:no_weight
      in
      let id =
        Datapath.build inst.B.dfg inst.B.massign ra ~policy:inst.B.policy
          ~swap:(fun _ -> false)
      in
      total_connections dp <= total_connections id)

let prop_optimize_matches_brute_force_small =
  QCheck.Test.make ~name:"optimizer exact on small random instances" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:7 ~inputs:3 in
      let ra = Bistpath_core.Traditional_alloc.allocate inst.B.dfg ~policy:inst.B.policy in
      let dp =
        Interconnect.optimize inst.B.dfg inst.B.massign ra ~policy:inst.B.policy
          ~objective:no_weight
      in
      total_connections dp
      = brute_force_min inst.B.dfg inst.B.massign ra inst.B.policy)

(* The int-coded scorer picks the swaps the Hashtbl scorer it replaced
   picks (Oracles.interconnect_optimize), scoring as many orientations,
   with no weight and with one that separates registers by name. *)
let matches_oracle dfg massign ra ~policy =
  List.for_all
    (fun objective ->
      let dp, t =
        Telemetry.collect (fun () -> Interconnect.optimize dfg massign ra ~policy ~objective)
      in
      let odp, ot =
        Telemetry.collect (fun () ->
            Oracles.interconnect_optimize dfg massign ra ~policy ~objective)
      in
      dp.Datapath.routes = odp.Datapath.routes
      && Telemetry.counter t "interconnect.orientations"
         = Telemetry.counter ot "interconnect.orientations")
    [ no_weight; { Interconnect.weight = (fun rid -> Hashtbl.hash rid mod 5) } ]

(* Both flows' register assignments; ewf's adders take the hill-climbing
   path. *)
let scorer_matches_oracle_on_benchmarks () =
  List.iter
    (fun tag ->
      match B.by_tag tag with
      | None -> Alcotest.fail tag
      | Some inst ->
        List.iter
          (fun style ->
            let ra =
              (Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy).Flow.regalloc
            in
            check Alcotest.bool tag true
              (matches_oracle inst.B.dfg inst.B.massign ra ~policy:inst.B.policy))
          [ Flow.Testable Bistpath_core.Testable_alloc.default_options; Flow.Traditional ])
    B.all_tags

let prop_scorer_matches_oracle =
  QCheck.Test.make ~name:"int scorer picks the Hashtbl scorer's swaps" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:(5 + Prng.int rng 30) ~inputs:(2 + Prng.int rng 4) in
      let ra = Bistpath_core.Traditional_alloc.allocate inst.B.dfg ~policy:inst.B.policy in
      matches_oracle inst.B.dfg inst.B.massign ra ~policy:inst.B.policy)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "paper benchmarks reach minimum connections" paper_benchmarks_minimal;
    case "LR registers reported" lr_registers_reported;
    case "weights do not break minimality" weight_steers_lr;
    case "hill climbing reasonable on ewf" hill_climb_reasonable_on_large;
    case "int scorer matches the oracle on the benchmarks" scorer_matches_oracle_on_benchmarks;
  ]
  @ qcheck
      [ prop_optimize_no_worse_than_identity; prop_optimize_matches_brute_force_small;
        prop_scorer_matches_oracle ]
