(* Tests for the benchmark instances: well-formedness, published
   characteristics, and robustness of the random generator. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Massign = Bistpath_dfg.Massign
module Lifetime = Bistpath_dfg.Lifetime
module B = Bistpath_benchmarks.Benchmarks
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let all_instances () =
  List.filter_map B.by_tag B.all_tags

let instances_validate () =
  (* Dfg.make and Massign.make already validate on construction; surviving
     by_tag means each instance is well-formed. *)
  check Alcotest.int "all tags resolve" (List.length B.all_tags)
    (List.length (all_instances ()))

let table1_row_order () =
  check
    (Alcotest.list Alcotest.string)
    "paper order"
    [ "ex1"; "ex2"; "Tseng1"; "Tseng2"; "Paulin" ]
    (List.map (fun i -> i.B.tag) (B.table1 ()))

let ex1_matches_fig2 () =
  let inst = B.ex1 () in
  check Alcotest.int "4 operations" 4 (List.length inst.B.dfg.Dfg.ops);
  check Alcotest.int "3 control steps" 3 (Dfg.num_csteps inst.B.dfg);
  check Alcotest.int "2 units" 2 (List.length inst.B.massign.Massign.units);
  check (Alcotest.list Alcotest.string) "inputs" [ "a"; "b"; "e"; "g" ] inst.B.dfg.Dfg.inputs

let ex2_module_mix () =
  let inst = Option.get (B.by_tag "ex2") in
  check Alcotest.string "1/, 2*, 2+, 1& (sorted rendering)" "1&, 2*, 2+, 1/"
    (Massign.describe inst.B.massign inst.B.dfg);
  check Alcotest.int "9 ops" 9 (List.length inst.B.dfg.Dfg.ops)

let tseng_shares_dfg () =
  let t1 = B.tseng1 () and t2 = B.tseng2 () in
  check (Alcotest.list Alcotest.string) "same variables" (Dfg.variables t1.B.dfg)
    (Dfg.variables t2.B.dfg);
  check Alcotest.string "tseng1 units" "1&, 1*, 2+, 1-, 1/, 1|"
    (Massign.describe t1.B.massign t1.B.dfg);
  check Alcotest.string "tseng2 units" "1+, 3ALU" (Massign.describe t2.B.massign t2.B.dfg)

let paulin_structure () =
  let inst = B.paulin () in
  check Alcotest.string "units" "2*, 1+, 1-" (Massign.describe inst.B.massign inst.B.dfg);
  check Alcotest.int "10 ops" 10 (List.length inst.B.dfg.Dfg.ops);
  check Alcotest.int "4 csteps" 4 (Dfg.num_csteps inst.B.dfg);
  check Alcotest.int "3 carried" 3 (List.length inst.B.policy.Bistpath_dfg.Policy.carried);
  (* 5 multiplications: the HAL operation mix *)
  check Alcotest.int "5 muls" 5 (List.assoc Op.Mul (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "3 subs" 3 (List.assoc Op.Sub (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "2 adds" 2 (List.assoc Op.Add (Dfg.kind_counts inst.B.dfg))

let ewf_operation_mix () =
  let inst = Option.get (B.by_tag "ewf") in
  check Alcotest.int "26 additions" 26 (List.assoc Op.Add (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "8 multiplications" 8 (List.assoc Op.Mul (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "34 ops total" 34 (List.length inst.B.dfg.Dfg.ops)

let fir_scales () =
  List.iter
    (fun taps ->
      let inst = Option.get (B.by_tag (Printf.sprintf "fir%d" taps)) in
      check Alcotest.int
        (Printf.sprintf "fir%d op count" taps)
        ((2 * taps) - 1)
        (List.length inst.B.dfg.Dfg.ops))
    [ 2; 4; 8; 12 ];
  check Alcotest.bool "fir1 rejected" true (B.by_tag "fir1" = None)

let iir_structure () =
  let inst = Option.get (B.by_tag "iir") in
  check Alcotest.int "5 muls" 5 (List.assoc Op.Mul (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "2 adds" 2 (List.assoc Op.Add (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "2 subs" 2 (List.assoc Op.Sub (Dfg.kind_counts inst.B.dfg))

let ar_structure () =
  let inst = Option.get (B.by_tag "ar") in
  check Alcotest.int "8 muls" 8 (List.assoc Op.Mul (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "8 adds" 8 (List.assoc Op.Add (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "16 ops" 16 (List.length inst.B.dfg.Dfg.ops)

let dct4_structure () =
  let inst = Option.get (B.by_tag "dct4") in
  check Alcotest.int "6 muls" 6 (List.assoc Op.Mul (Dfg.kind_counts inst.B.dfg));
  check Alcotest.int "14 ops" 14 (List.length inst.B.dfg.Dfg.ops);
  check Alcotest.int "4 outputs" 4 (List.length inst.B.dfg.Dfg.outputs)

let data_files_roundtrip () =
  (* the shipped .dfg files equal the built-in instances *)
  List.iter
    (fun tag ->
      let dfg = (Test_regalloc_trace.load ("data/" ^ tag ^ ".dfg")).B.dfg in
      let inst = Option.get (B.by_tag tag) in
      check Alcotest.string (tag ^ " text equal")
        (Bistpath_dfg.Parser.to_string inst.B.dfg)
        (Bistpath_dfg.Parser.to_string dfg))
    [ "ex1"; "Paulin"; "dct4" ]

let by_tag_unknown () =
  check Alcotest.bool "unknown tag" true (B.by_tag "nope" = None)

let prop_random_instances_wellformed =
  QCheck.Test.make ~name:"random instances build and have consistent minima" ~count:80
    QCheck.(pair (int_bound 100_000) (pair (int_range 1 20) (int_range 2 6)))
    (fun (seed, (ops, inputs)) ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops ~inputs in
      (* construction already validates; check a couple of invariants *)
      let minr = Lifetime.min_registers ~policy:inst.B.policy inst.B.dfg in
      minr >= 0
      && List.length inst.B.dfg.Dfg.ops = ops
      && Dfg.num_csteps inst.B.dfg >= 1)

let prop_random_deterministic =
  QCheck.Test.make ~name:"random instance generation is seed-deterministic" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let a = B.random (Prng.create seed) ~ops:10 ~inputs:4 in
      let b = B.random (Prng.create seed) ~ops:10 ~inputs:4 in
      Bistpath_dfg.Parser.to_string a.B.dfg = Bistpath_dfg.Parser.to_string b.B.dfg)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "all instances validate" instances_validate;
    case "table1 row order" table1_row_order;
    case "ex1 matches Fig. 2" ex1_matches_fig2;
    case "ex2 module mix" ex2_module_mix;
    case "tseng variants share the DFG" tseng_shares_dfg;
    case "paulin structure" paulin_structure;
    case "ewf operation mix" ewf_operation_mix;
    case "fir scales with taps" fir_scales;
    case "iir structure" iir_structure;
    case "ar lattice structure" ar_structure;
    case "dct4 structure" dct4_structure;
    case "data files round-trip" data_files_roundtrip;
    case "by_tag unknown" by_tag_unknown;
  ]
  @ qcheck [ prop_random_instances_wellformed; prop_random_deterministic ]
