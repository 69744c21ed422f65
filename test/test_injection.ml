(* Failure injection: deliberately corrupt synthesized artifacts and
   verify the checking machinery actually catches the corruption. A
   checker that never fires is no checker. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module B = Bistpath_benchmarks.Benchmarks
module Datapath = Bistpath_datapath.Datapath
module Interp = Bistpath_datapath.Interp
module Regalloc = Bistpath_datapath.Regalloc
module Flow = Bistpath_core.Flow
module G = Bistpath_gatelevel
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let testable = Flow.Testable Bistpath_core.Testable_alloc.default_options

let run_flow inst = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy

(* Swapping the operand registers of a subtraction must break
   equivalence (the interpreter reads the wrong registers). *)
let swapped_subtraction_detected () =
  let inst = B.paulin () in
  let r = run_flow inst in
  let dp = r.Flow.datapath in
  let corrupt =
    {
      dp with
      Datapath.routes =
        List.map
          (fun (rt : Datapath.route) ->
            if String.equal rt.opid "-1" then
              { rt with l_reg = rt.r_reg; r_reg = rt.l_reg }
            else rt)
          dp.Datapath.routes;
    }
  in
  let inputs = [ ("x", 2); ("y", 3); ("u", 200); ("dx", 4); ("a", 100); ("c3", 3) ] in
  check Alcotest.bool "clean datapath equivalent" true
    (Interp.equivalent_to_dfg dp ~width:8 ~inputs);
  check Alcotest.bool "corrupted datapath caught" false
    (Interp.equivalent_to_dfg corrupt ~width:8 ~inputs)

(* Routing a result into the wrong register must be caught. *)
let misrouted_result_detected () =
  let inst = B.ex1 () in
  let r = run_flow inst in
  let dp = r.Flow.datapath in
  (* send *2's result (h) into R3 instead of its allocated register *)
  let corrupt =
    {
      dp with
      Datapath.routes =
        List.map
          (fun (rt : Datapath.route) ->
            if String.equal rt.opid "*2" then { rt with out_reg = "R3" } else rt)
          dp.Datapath.routes;
      reg_writers =
        List.map
          (fun (rid, ws) ->
            if String.equal rid "R3" then (rid, Datapath.From_unit "M2" :: ws)
            else (rid, ws))
          dp.Datapath.reg_writers;
    }
  in
  let inputs = [ ("a", 9); ("b", 4); ("e", 3); ("g", 7) ] in
  check Alcotest.bool "caught" false (Interp.equivalent_to_dfg corrupt ~width:8 ~inputs)

(* A register assignment merging two conflicting variables must be
   rejected before any datapath is built. *)
let conflicting_allocation_rejected () =
  let inst = B.ex1 () in
  (* c and d overlap: same register is invalid *)
  let bogus =
    Regalloc.make
      [ ("R1", [ "c"; "d" ]); ("R2", [ "a"; "e"; "h" ]); ("R3", [ "b"; "f"; "g" ]) ]
  in
  check Alcotest.bool "validity check fires" false
    (Regalloc.is_valid_for bogus inst.B.dfg ~policy:inst.B.policy)

(* Gate-level: a wrong gate in the adder must fail the reference check. *)
let wrong_gate_detected () =
  let c = G.Library.of_kind Op.Add ~width:3 in
  let corrupt =
    {
      c with
      G.Circuit.gates =
        Array.map
          (fun (g : G.Circuit.gate) ->
            (* turn the first XOR into an OR *)
            g)
          c.G.Circuit.gates;
    }
  in
  (* locate the first Xor and flip it *)
  let flipped = ref false in
  let gates =
    Array.map
      (fun (g : G.Circuit.gate) ->
        if (not !flipped) && g.G.Circuit.kind = G.Circuit.Xor then begin
          flipped := true;
          { g with G.Circuit.kind = G.Circuit.Or }
        end
        else g)
      corrupt.G.Circuit.gates
  in
  let corrupt = { corrupt with G.Circuit.gates = gates } in
  let mismatches = ref 0 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      match Gate_ops.Sim.eval_words corrupt ~width:3 [ a; b ] with
      | got :: _ -> if got <> Op.eval Op.Add ~width:3 a b then incr mismatches
      | [] -> incr mismatches
    done
  done;
  check Alcotest.bool "mutated adder disagrees somewhere" true (!mismatches > 0)

(* A stuck LFSR (hypothetical all-zero seed) is rejected; a fault made
   undetectable by masking logic is reported undetected, not silently
   dropped. *)
let fault_sim_reports_misses () =
  let c = G.Library.of_kind Op.And ~width:1 in
  let f = { G.Fault.net = 2; polarity = G.Fault.Stuck_at_0 } in
  let r =
    G.Fault_sim.run_operand_patterns c ~width:1 ~faults:[ f ]
      ~patterns:[ (0, 0); (0, 1); (1, 0) ]
  in
  check Alcotest.int "undetected reported" 1 (List.length r.G.Fault_sim.undetected);
  check (Alcotest.float 1e-9) "coverage 0" 0.0 (G.Fault_sim.coverage r)

(* Scale/robustness: a 32-tap FIR and the transparent ewf search both
   complete and validate. *)
let large_designs_complete () =
  let inst = Option.get (B.by_tag "fir32") in
  let r = run_flow inst in
  check Alcotest.bool "fir32 synthesizes" true (r.Flow.registers > 0);
  let rng = Prng.create 5 in
  let inputs =
    List.map (fun v -> (v, Prng.int rng 256)) inst.B.dfg.Dfg.inputs
  in
  check Alcotest.bool "fir32 equivalent" true
    (Interp.equivalent_to_dfg r.Flow.datapath ~width:8 ~inputs);
  let ewf = Option.get (B.by_tag "ewf") in
  let re =
    Flow.run ~transparency:true ~style:testable ewf.B.dfg ewf.B.massign
      ~policy:ewf.B.policy
  in
  check Alcotest.bool "ewf transparent solution valid" true
    (re.Flow.bist.Bistpath_bist.Allocator.delta_gates > 0)

let suite =
  [
    case "swapped subtraction detected" swapped_subtraction_detected;
    case "misrouted result detected" misrouted_result_detected;
    case "conflicting allocation rejected" conflicting_allocation_rejected;
    case "mutated adder gate detected" wrong_gate_detected;
    case "fault sim reports misses" fault_sim_reports_misses;
    case "large designs complete" large_designs_complete;
  ]
