(* Tests for SCOAP testability analysis and PODEM test generation,
   cross-validated against exhaustive fault simulation. *)

module Op = Bistpath_dfg.Op
module G = Bistpath_gatelevel
module Circuit = G.Circuit
module Library = G.Library
module Fault = G.Fault
module Fault_sim = G.Fault_sim
module Scoap = G.Scoap
module Podem = G.Podem

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* --- SCOAP --------------------------------------------------------- *)

let scoap_inputs_are_easy () =
  let c = Library.of_kind Op.Add ~width:4 in
  let t = Scoap.analyze c in
  List.iter
    (fun i ->
      check Alcotest.int "CC0(input)=1" 1 (Scoap.cc0 t i);
      check Alcotest.int "CC1(input)=1" 1 (Scoap.cc1 t i))
    c.Circuit.inputs

let scoap_outputs_observable () =
  let c = Library.of_kind Op.Add ~width:4 in
  let t = Scoap.analyze c in
  List.iter (fun o -> check Alcotest.int "CO(output)=0" 0 (Scoap.co t o)) c.Circuit.outputs

let scoap_hand_computed_and_gate () =
  (* single AND gate: CC1(out) = 1+1+1 = 3, CC0(out) = min(1,1)+1 = 2;
     CO(input) = CO(out) + CC1(other) + 1 = 0+1+1 = 2 *)
  let b = Circuit.Builder.create "and1" in
  let x, y = match Circuit.Builder.inputs b 2 with [ x; y ] -> (x, y) | _ -> assert false in
  let o = Circuit.Builder.gate b Circuit.And [ x; y ] in
  Circuit.Builder.output b o;
  let c = Circuit.Builder.finish b in
  let t = Scoap.analyze c in
  check Alcotest.int "CC1(out)" 3 (Scoap.cc1 t o);
  check Alcotest.int "CC0(out)" 2 (Scoap.cc0 t o);
  check Alcotest.int "CO(x)" 2 (Scoap.co t x);
  check Alcotest.int "CO(out)" 0 (Scoap.co t o)

let scoap_xor_rules () =
  (* XOR: CC1 = min(CC0a+CC1b, CC1a+CC0b)+1 = 3; CC0 = min(0+0,1+1 pairs)+1 = 3 *)
  let b = Circuit.Builder.create "xor1" in
  let x, y = match Circuit.Builder.inputs b 2 with [ x; y ] -> (x, y) | _ -> assert false in
  let o = Circuit.Builder.gate b Circuit.Xor [ x; y ] in
  Circuit.Builder.output b o;
  let c = Circuit.Builder.finish b in
  let t = Scoap.analyze c in
  check Alcotest.int "CC1" 3 (Scoap.cc1 t o);
  check Alcotest.int "CC0" 3 (Scoap.cc0 t o)

let scoap_depth_monotone () =
  (* deeper logic is harder to control: the multiplier's MSB output
     should be harder to set than a primary input *)
  let c = Library.of_kind Op.Mul ~width:4 in
  let t = Scoap.analyze c in
  let msb = List.nth c.Circuit.outputs 3 in
  check Alcotest.bool "CC1(msb) > CC1(input)" true
    (Scoap.cc1 t msb > Scoap.cc1 t (List.hd c.Circuit.inputs))

let scoap_difficulty_orders_faults () =
  let c = Library.of_kind Op.Mul ~width:4 in
  let t = Scoap.analyze c in
  let hard = Scoap.hardest_faults t c 5 in
  check Alcotest.int "asked for 5" 5 (List.length hard);
  (* they are at least as hard as an arbitrary input fault *)
  let input_fault = { Fault.net = List.hd c.Circuit.inputs; polarity = Fault.Stuck_at_0 } in
  List.iter
    (fun f ->
      check Alcotest.bool "ranked harder than input fault" true
        (Scoap.fault_difficulty t f >= Scoap.fault_difficulty t input_fault))
    hard

let scoap_summary_mentions_name () =
  let c = Library.of_kind Op.Add ~width:4 in
  let t = Scoap.analyze c in
  let s = Scoap.summary t c in
  check Alcotest.bool "names circuit" true
    (String.length s > 0 && String.sub s 0 4 = "add4")

(* --- PODEM --------------------------------------------------------- *)

let exhaustive_patterns width =
  List.concat_map
    (fun a -> List.init (1 lsl width) (fun b -> (a, b)))
    (List.init (1 lsl width) Fun.id)

let podem_agrees_with_simulation kind width () =
  let c = Library.of_kind kind ~width in
  let cls = Podem.classify_all c in
  check Alcotest.int "nothing aborted" 0 (List.length cls.Podem.aborted);
  (* every generated vector really detects its fault *)
  List.iter
    (fun (f, v) ->
      if not (Gate_ops.detects c f v) then
        Alcotest.failf "bogus test for %s" (Format.asprintf "%a" Fault.pp f))
    cls.Podem.tested;
  (* redundancy agrees with exhaustive fault simulation *)
  let r =
    Fault_sim.run_operand_patterns c ~width ~faults:(Fault.collapsed c)
      ~patterns:(exhaustive_patterns width)
  in
  check Alcotest.int "same redundant set size" (List.length r.Fault_sim.undetected)
    (List.length cls.Podem.untestable);
  check Alcotest.bool "same redundant faults" true
    (List.sort compare r.Fault_sim.undetected = List.sort compare cls.Podem.untestable)

let divider_redundancy_proven () =
  (* the restoring-divider array contains genuinely redundant logic;
     PODEM must prove it rather than abort *)
  let c = Library.of_kind Op.Div ~width:2 in
  let cls = Podem.classify_all c in
  check Alcotest.bool "has untestable faults" true (List.length cls.Podem.untestable > 0);
  check Alcotest.int "no aborts" 0 (List.length cls.Podem.aborted)

let podem_on_alu () =
  let c = Library.alu [ Op.Add; Op.And ] ~width:3 in
  let cls = Podem.classify_all c in
  check Alcotest.int "no aborts" 0 (List.length cls.Podem.aborted);
  List.iter
    (fun (f, v) ->
      check Alcotest.bool "verified" true (Gate_ops.detects c f v))
    cls.Podem.tested

let podem_single_fault () =
  let c = Library.of_kind Op.And ~width:1 in
  (* output s-a-0 needs the (1,1) vector *)
  let cls = Podem.classify_all c in
  match List.assoc_opt { Fault.net = 2; polarity = Fault.Stuck_at_0 } cls.Podem.tested with
  | Some v -> check (Alcotest.list Alcotest.int) "vector 1,1" [ 1; 1 ] v
  | None -> Alcotest.fail "should find the test"

let podem_budget_respected () =
  let c = Library.of_kind Op.Mul ~width:4 in
  (* a zero backtrack quota must abort rather than loop, and can never
     prove a fault redundant: that takes search *)
  let cls = Podem.classify_all ~max_backtracks:0 c in
  check Alcotest.int "nothing proven untestable" 0 (List.length cls.Podem.untestable)

let subtractor4 =
  lazy
    (let c = Library.of_kind Op.Sub ~width:4 in
     (c, Podem.classify_all c))

let prop_podem_tests_verified =
  QCheck.Test.make ~name:"PODEM vectors verified on random fault of the subtractor"
    ~count:30
    QCheck.(int_bound 1_000)
    (fun seed ->
      let c, cls = Lazy.force subtractor4 in
      let faults = Array.of_list (Fault.collapsed c) in
      let f = faults.(seed mod Array.length faults) in
      (* the subtractor is fully testable: every fault gets a vector *)
      match List.assoc_opt f cls.Podem.tested with
      | Some v -> Gate_ops.detects c f v
      | None -> false)

(* --- Weighted patterns ---------------------------------------------- *)

let weights_in_range () =
  let c = Library.of_kind Op.Less ~width:4 in
  let w = G.Weighted.input_weights c in
  check Alcotest.int "one weight per input" (List.length c.Circuit.inputs)
    (Array.length w);
  Array.iter
    (fun x -> check Alcotest.bool "in [0,1]" true (x >= 0.0 && x <= 1.0))
    w

let weighted_patterns_shape () =
  let rng = Bistpath_util.Prng.create 4 in
  let ps = G.Weighted.patterns rng ~weights:[| 0.0; 1.0; 0.5 |] ~count:50 in
  check Alcotest.int "count" 50 (List.length ps);
  List.iter
    (fun p ->
      check Alcotest.int "arity" 3 (List.length p);
      check Alcotest.int "weight 0 pins to 0" 0 (List.nth p 0);
      check Alcotest.int "weight 1 pins to 1" 1 (List.nth p 1))
    ps

let weighted_beats_uniform_on_comparator () =
  let c = Library.of_kind Op.Less ~width:6 in
  let r = G.Weighted.compare_coverage c ~count:24 in
  check Alcotest.bool "weighted at least as good" true
    (r.G.Weighted.weighted_detected >= r.G.Weighted.uniform_detected);
  check Alcotest.bool "neither exceeds testable" true
    (r.G.Weighted.weighted_detected <= r.G.Weighted.testable
    && r.G.Weighted.uniform_detected <= r.G.Weighted.testable)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "scoap: inputs easy" scoap_inputs_are_easy;
    case "scoap: outputs observable" scoap_outputs_observable;
    case "scoap: AND gate hand-computed" scoap_hand_computed_and_gate;
    case "scoap: XOR rules" scoap_xor_rules;
    case "scoap: depth monotone" scoap_depth_monotone;
    case "scoap: difficulty ranking" scoap_difficulty_orders_faults;
    case "scoap: summary" scoap_summary_mentions_name;
    case "podem = simulation (adder w3)" (podem_agrees_with_simulation Op.Add 3);
    case "podem = simulation (subtractor w3)" (podem_agrees_with_simulation Op.Sub 3);
    case "podem = simulation (multiplier w3)" (podem_agrees_with_simulation Op.Mul 3);
    case "podem = simulation (comparator w4)" (podem_agrees_with_simulation Op.Less 4);
    case "podem = simulation (divider w2)" (podem_agrees_with_simulation Op.Div 2);
    case "divider redundancy proven" divider_redundancy_proven;
    case "podem on ALU" podem_on_alu;
    case "podem single fault vector" podem_single_fault;
    case "podem budget respected" podem_budget_respected;
    case "weighted: weights in range" weights_in_range;
    case "weighted: pattern shape" weighted_patterns_shape;
    case "weighted beats uniform (comparator)" weighted_beats_uniform_on_comparator;
  ]
  @ qcheck [ prop_podem_tests_verified ]
