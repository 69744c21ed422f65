(* Tests for the data-path netlist model: construction, connectivity,
   mux counting, self-adjacency, dedicated/carried registers, area. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Policy = Bistpath_dfg.Policy
module B = Bistpath_benchmarks.Benchmarks
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Area = Bistpath_datapath.Area
module Interconnect = Bistpath_datapath.Interconnect
module Flow = Bistpath_core.Flow
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let ex1_testable () =
  let inst = B.ex1 () in
  Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
    inst.B.dfg inst.B.massign ~policy:inst.B.policy

let ex1_port_sources () =
  let r = ex1_testable () in
  let dp = r.Flow.datapath in
  (* paper's Fig. 5(a): one port of each unit single-sourced *)
  let l1, r1 = Datapath.unit_port_sources dp "M1" in
  check Alcotest.int "M1 left single" 1 (List.length l1);
  check Alcotest.int "M1 right single" 1 (List.length r1);
  let l2, r2 = Datapath.unit_port_sources dp "M2" in
  check Alcotest.int "M2 two-source port" 2 (List.length l2);
  check Alcotest.int "M2 single port" 1 (List.length r2)

let ex1_mux_counts () =
  let r = ex1_testable () in
  check Alcotest.int "3 muxes (Table I)" 3 (Datapath.mux_count r.Flow.datapath);
  (* mux inputs: M2.L (2) + two register muxes (4 and 3 writers) *)
  check Alcotest.int "mux input total" 6 (Datapath.mux_input_total r.Flow.datapath)

let ex1_input_output_registers () =
  let r = ex1_testable () in
  let dp = r.Flow.datapath in
  check Alcotest.int "IR(M1) = 2 registers" 2 (List.length (Datapath.input_registers dp "M1"));
  check Alcotest.int "OR(M1) = 2 registers" 2 (List.length (Datapath.output_registers dp "M1"));
  check Alcotest.int "IR(M2) = 3 registers" 3 (List.length (Datapath.input_registers dp "M2"))

let invalid_regalloc_rejected () =
  let inst = B.ex1 () in
  let bogus = Regalloc.make [ ("R1", [ "a"; "b" ]) ] in
  match
    Datapath.build inst.B.dfg inst.B.massign bogus ~policy:inst.B.policy
      ~swap:(fun _ -> false)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incomplete register assignment accepted"

let noncommutative_never_swapped () =
  let inst = B.paulin () in
  let ra =
    Bistpath_core.Traditional_alloc.allocate inst.B.dfg ~policy:inst.B.policy
  in
  (* ask to swap everything; subtractions must stay pinned *)
  let dp =
    Datapath.build inst.B.dfg inst.B.massign ra ~policy:inst.B.policy ~swap:(fun _ -> true)
  in
  List.iter
    (fun (rt : Datapath.route) ->
      match Dfg.op_by_id inst.B.dfg rt.opid with
      | Some op when not (Op.commutative op.Op.kind) ->
        check Alcotest.bool ("pinned " ^ rt.opid) false rt.swapped
      | Some _ | None -> ())
    dp.Datapath.routes

let carried_write_back () =
  let inst = B.paulin () in
  let r =
    Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  let dp = r.Flow.datapath in
  (* x1 is carried into IN_x: the ADD unit writes that register *)
  let writers = List.assoc "IN_x" dp.Datapath.reg_writers in
  check Alcotest.bool "IN_x written by ADD" true
    (List.mem (Datapath.From_unit "ADD") writers);
  check Alcotest.bool "IN_x loaded from pin" true
    (List.mem (Datapath.From_port "x") writers);
  (* the dedicated register holds both x and x1 *)
  let reg = List.find (fun r -> r.Datapath.rid = "IN_x") dp.Datapath.regs in
  check (Alcotest.list Alcotest.string) "vars" [ "x"; "x1" ] (List.sort compare reg.Datapath.vars);
  check Alcotest.bool "dedicated" true reg.Datapath.dedicated;
  (* primary output x1 is served from IN_x *)
  check (Alcotest.option Alcotest.string) "x1 output register" (Some "IN_x")
    (List.assoc_opt "x1" dp.Datapath.outputs);
  (* allocated register count excludes the dedicated ones *)
  check Alcotest.int "4 allocated" 4 (Datapath.allocated_register_count dp);
  check Alcotest.int "10 registers in total" 10 (List.length dp.Datapath.regs)

let carried_creates_self_adjacency_pressure () =
  let inst = B.paulin () in
  let r =
    Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  (* IN_x feeds ADD (operand x) and receives ADD's result (x1) *)
  check Alcotest.bool "IN_x self-adjacent" true
    (List.mem "IN_x" (Datapath.self_adjacent_registers r.Flow.datapath))

let self_adjacency_detection () =
  (* u = a+b; v = u+c on the same adder, u and v in one register *)
  let ops =
    [
      { Op.id = "+1"; kind = Op.Add; left = "a"; right = "b"; out = "u" };
      { Op.id = "+2"; kind = Op.Add; left = "u"; right = "c"; out = "v" };
    ]
  in
  let dfg =
    Dfg.make ~name:"sa" ~ops ~inputs:[ "a"; "b"; "c" ] ~outputs:[ "v" ]
      ~schedule:[ ("+1", 1); ("+2", 2) ]
  in
  let massign =
    Bistpath_dfg.Massign.make dfg
      ~units:[ { mid = "ADD"; kinds = [ Op.Add ] } ]
      ~bind:[ ("+1", "ADD"); ("+2", "ADD") ]
  in
  let ra = Regalloc.make [ ("R1", [ "a"; "u"; "v" ]); ("R2", [ "b"; "c" ]) ] in
  let dp = Datapath.build dfg massign ra ~policy:Policy.default ~swap:(fun _ -> false) in
  check (Alcotest.list Alcotest.string) "R1 self-adjacent" [ "R1" ]
    (Datapath.self_adjacent_registers dp);
  (* even with every variable in its own register, u's register loops
     around the adder (u is both an ADD result and an ADD operand) —
     unit-level self-adjacency is unavoidable for chained same-unit
     operations; v's register is clean *)
  let ra2 =
    Regalloc.make
      [ ("R1", [ "a" ]); ("R2", [ "b" ]); ("R3", [ "c" ]); ("R4", [ "u" ]); ("R5", [ "v" ]) ]
  in
  let dp2 = Datapath.build dfg massign ra2 ~policy:Policy.default ~swap:(fun _ -> false) in
  check (Alcotest.list Alcotest.string) "only u's register" [ "R4" ]
    (Datapath.self_adjacent_registers dp2)

let area_model_sanity () =
  let m = Area.default in
  check Alcotest.bool "cbilbo ~ 2x register (paper)" true
    (m.Area.cbilbo_delta_per_bit = m.Area.register_per_bit);
  check Alcotest.bool "style cost order" true
    (m.Area.tpg_delta_per_bit < m.Area.sa_delta_per_bit
    && m.Area.sa_delta_per_bit < m.Area.bilbo_delta_per_bit
    && m.Area.bilbo_delta_per_bit < m.Area.cbilbo_delta_per_bit);
  check Alcotest.int "register gates scale with width" (2 * Area.register_gates m ~width:8)
    (Area.register_gates m ~width:16);
  let add = Area.unit_gates m ~width:8 { Bistpath_dfg.Massign.mid = "A"; kinds = [ Op.Add ] } in
  let mul = Area.unit_gates m ~width:8 { Bistpath_dfg.Massign.mid = "M"; kinds = [ Op.Mul ] } in
  check Alcotest.bool "multiplier much larger than adder" true (mul > 4 * add)

let functional_gates_positive () =
  let r = ex1_testable () in
  let g = Area.functional_gates Area.default ~width:8 r.Flow.datapath in
  check Alcotest.bool "positive" true (g > 0);
  (* rough decomposition: 3 regs + add + mul + muxes *)
  let m = Area.default in
  let expected =
    (3 * Area.register_gates m ~width:8)
    + Area.unit_gates m ~width:8 { Bistpath_dfg.Massign.mid = "M1"; kinds = [ Op.Add ] }
    + Area.unit_gates m ~width:8 { Bistpath_dfg.Massign.mid = "M2"; kinds = [ Op.Mul ] }
    + (m.Area.mux2_per_bit * 8 * Datapath.mux_input_total r.Flow.datapath)
  in
  check Alcotest.int "decomposition" expected g

let area_breakdown_sums () =
  let inst = B.paulin () in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let m = Area.default in
  let b = Area.breakdown m ~width:8 r.Flow.datapath in
  check Alcotest.int "total = parts"
    (b.Area.registers + b.Area.dedicated_registers + b.Area.units + b.Area.muxes)
    b.Area.total;
  check Alcotest.int "total = functional_gates"
    (Area.functional_gates m ~width:8 r.Flow.datapath)
    b.Area.total;
  (* Paulin: 4 allocated, 6 dedicated registers *)
  check Alcotest.int "allocated register gates" (4 * Area.register_gates m ~width:8)
    b.Area.registers;
  check Alcotest.int "dedicated register gates" (6 * Area.register_gates m ~width:8)
    b.Area.dedicated_registers

let prop_build_deterministic =
  QCheck.Test.make ~name:"datapath build is deterministic" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:4 in
      let mk () =
        Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy
      in
      let a = mk () and b = mk () in
      Format.asprintf "%a" Datapath.pp a.Flow.datapath
      = Format.asprintf "%a" Datapath.pp b.Flow.datapath)

let prop_routes_cover_ops =
  QCheck.Test.make ~name:"one route per operation, referencing real registers" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
      let dp = r.Flow.datapath in
      List.length dp.Datapath.routes = List.length inst.B.dfg.Dfg.ops
      && List.for_all
           (fun (rt : Datapath.route) ->
             let exists rid = List.exists (fun (x : Datapath.reg) -> x.rid = rid) dp.Datapath.regs in
             exists rt.l_reg && exists rt.r_reg && exists rt.out_reg)
           dp.Datapath.routes)

let prop_mux_counts_consistent =
  QCheck.Test.make ~name:"mux_count <= mux_input_total" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
      Datapath.mux_count r.Flow.datapath <= Datapath.mux_input_total r.Flow.datapath)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "ex1 port sources" ex1_port_sources;
    case "ex1 mux counts (Table I)" ex1_mux_counts;
    case "ex1 input/output registers" ex1_input_output_registers;
    case "invalid register assignment rejected" invalid_regalloc_rejected;
    case "non-commutative operands pinned" noncommutative_never_swapped;
    case "carried write-back (Paulin loop)" carried_write_back;
    case "carried registers become self-adjacent" carried_creates_self_adjacency_pressure;
    case "self-adjacency detection" self_adjacency_detection;
    case "area model sanity" area_model_sanity;
    case "area breakdown sums" area_breakdown_sums;
    case "functional gates decomposition" functional_gates_positive;
  ]
  @ qcheck [ prop_build_deterministic; prop_routes_cover_ops; prop_mux_counts_consistent ]
