(* Tests for lifetimes, allocation policies and conflict graphs,
   including the paper's published register minima. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Policy = Bistpath_dfg.Policy
module Lifetime = Bistpath_dfg.Lifetime
module Interval = Graph_ops.Interval
module Chordal = Bistpath_graphs.Chordal
module Coloring = Graph_ops.Coloring
module B = Bistpath_benchmarks.Benchmarks
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let span_conventions () =
  let inst = B.ex1 () in
  let d = inst.B.dfg in
  let s v = Lifetime.span d v in
  (* primary input used at step 1: born 0, dies 1 *)
  check Alcotest.int "a birth" 0 (s "a").Interval.birth;
  check Alcotest.int "a death" 1 (s "a").Interval.death;
  (* input first used at step 3: born 2 *)
  check Alcotest.int "e birth" 2 (s "e").Interval.birth;
  (* op result born at its producing step *)
  check Alcotest.int "c birth" 1 (s "c").Interval.birth;
  check Alcotest.int "c death" 2 (s "c").Interval.death;
  (* unused result held one step *)
  check Alcotest.int "h death" 4 (s "h").Interval.death

let unused_input_rejected () =
  let d =
    Dfg.make ~name:"u"
      ~ops:[ { Op.id = "x"; kind = Op.Add; left = "a"; right = "b"; out = "c" } ]
      ~inputs:[ "a"; "b"; "zz" ] ~outputs:[ "c" ]
      ~schedule:[ ("x", 1) ]
  in
  (match Lifetime.span d "zz" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "span of unused input accepted");
  (* spans silently omits it *)
  check Alcotest.int "spans omit unused input" 3 (List.length (Lifetime.spans d))

let policy_filters_inputs () =
  let inst = B.ex1 () in
  let all = Lifetime.spans inst.B.dfg in
  let no_inputs = Lifetime.spans ~policy:Policy.dedicated_io inst.B.dfg in
  check Alcotest.int "all variables" 8 (List.length all);
  check Alcotest.int "intermediates only" 4 (List.length no_inputs)

let policy_carried_excluded () =
  let inst = B.paulin () in
  let spans = Lifetime.spans ~policy:inst.B.policy inst.B.dfg in
  let names = List.map fst spans in
  check Alcotest.bool "x1 not allocated" false (List.mem "x1" names);
  check Alcotest.bool "cc allocated" true (List.mem "cc" names);
  check Alcotest.int "7 temporaries" 7 (List.length names)

let policy_validation () =
  let inst = B.ex1 () in
  let bad p =
    match Policy.validate inst.B.dfg p with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "invalid policy accepted"
  in
  bad { Policy.allocate_inputs = true; carried = [ ("f", "a") ] };
  bad (Policy.with_carried [ ("f", "zz") ]);
  bad (Policy.with_carried [ ("a", "b") ]);
  (* a is not produced *)
  bad (Policy.with_carried [ ("f", "a"); ("h", "a") ]);
  (* duplicate target *)
  bad (Policy.with_carried [ ("f", "a"); ("f", "b") ]);
  (* duplicate source *)
  Policy.validate inst.B.dfg (Policy.with_carried [ ("f", "a") ])

let min_registers_paper_numbers () =
  let expect = [ ("ex1", 3); ("ex2", 5); ("Tseng1", 5); ("Tseng2", 5); ("Paulin", 4) ] in
  List.iter
    (fun (tag, n) ->
      match B.by_tag tag with
      | None -> Alcotest.fail tag
      | Some inst ->
        check Alcotest.int (tag ^ " minimum registers") n
          (Lifetime.min_registers ~policy:inst.B.policy inst.B.dfg))
    expect

let ex1_108_partitions () =
  let inst = B.ex1 () in
  let g, _ = Lifetime.conflict_graph inst.B.dfg in
  check Alcotest.int "108 distinct 3-register assignments" 108
    (Coloring.count_colorings g 3)

let ex1_conflict_edges () =
  let inst = B.ex1 () in
  let g, idx = Lifetime.conflict_graph inst.B.dfg in
  let edge u v =
    Graph_ops.Ugraph.mem_edge g (idx.Lifetime.to_index u) (idx.Lifetime.to_index v)
  in
  check Alcotest.bool "a-b" true (edge "a" "b");
  check Alcotest.bool "c-d" true (edge "c" "d");
  check Alcotest.bool "e-f" true (edge "e" "f");
  check Alcotest.bool "e-g" true (edge "e" "g");
  check Alcotest.bool "f-g" true (edge "f" "g");
  check Alcotest.int "exactly 5 edges" 5 (Graph_ops.Ugraph.num_edges g);
  check Alcotest.bool "h isolated" true
    (Graph_ops.Ugraph.degree g (idx.Lifetime.to_index "h") = 0)

let prop_conflict_graphs_chordal =
  QCheck.Test.make ~name:"random DFG conflict graphs are interval (chordal)" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let g, _ = Lifetime.conflict_graph ~policy:inst.B.policy inst.B.dfg in
      Chordal.is_chordal g)

let prop_spans_overlap_iff_edge =
  QCheck.Test.make ~name:"conflict edge iff span overlap" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:3 in
      let g, idx = Lifetime.conflict_graph ~policy:inst.B.policy inst.B.dfg in
      let spans = Lifetime.spans ~policy:inst.B.policy inst.B.dfg in
      List.for_all
        (fun ((u, su), (v, sv)) ->
          let e =
            Graph_ops.Ugraph.mem_edge g (idx.Lifetime.to_index u)
              (idx.Lifetime.to_index v)
          in
          e = Interval.overlap su sv)
        (Bistpath_util.Listx.pairs spans))

(* The one-pass spans against a scan of the operations per variable. *)
let prop_spans_match_per_variable_scan =
  QCheck.Test.make ~name:"one-pass spans match a per-variable scan" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:(3 + Prng.int rng 12) ~inputs:(2 + Prng.int rng 3) in
      let dfg = inst.B.dfg in
      List.for_all
        (fun policy ->
          let scanned =
            List.filter_map
              (fun v ->
                let produced = Dfg.producer dfg v <> None and read = Dfg.consumers dfg v <> [] in
                if Policy.allocatable policy ~produced ~read v then Some (v, Lifetime.span dfg v)
                else None)
              (Dfg.variables dfg)
          in
          Lifetime.spans ~policy dfg = scanned)
        [ inst.B.policy; Policy.default; Policy.dedicated_io ])

let indexing_bijection () =
  let inst = Option.get (B.by_tag "ex2") in
  let idx = Lifetime.indexing inst.B.dfg in
  for i = 0 to idx.Lifetime.count - 1 do
    check Alcotest.int "roundtrip" i (idx.Lifetime.to_index (idx.Lifetime.of_index i))
  done;
  match idx.Lifetime.to_index "nonexistent" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown variable accepted"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "span conventions" span_conventions;
    case "unused input rejected" unused_input_rejected;
    case "policy filters inputs" policy_filters_inputs;
    case "carried results excluded" policy_carried_excluded;
    case "policy validation" policy_validation;
    case "paper register minima" min_registers_paper_numbers;
    case "ex1 has 108 partitions" ex1_108_partitions;
    case "ex1 conflict edges" ex1_conflict_edges;
    case "indexing bijection" indexing_bijection;
  ]
  @ qcheck
      [ prop_conflict_graphs_chordal;
        prop_spans_overlap_iff_edge;
        prop_spans_match_per_variable_scan ]
