(* Tests for the behavioural expression front end. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Eval = Bistpath_dfg.Eval
module Frontend = Bistpath_dfg.Frontend
module Scheduler = Bistpath_dfg.Scheduler
module Policy = Bistpath_dfg.Policy
module Flow = Bistpath_core.Flow
module Diagnostic = Bistpath_resilience.Diagnostic

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let compile_ok ?resources text =
  match Frontend.compile_diags ~name:"t" ?resources text with
  | Ok dfg -> dfg
  | Error ds ->
    Alcotest.failf "unexpected error: %s" (String.concat "\n" (List.map Diagnostic.to_string ds))

let expect_error text =
  match Frontend.compile_diags ~name:"t" text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "accepted %S" text

let eval dfg inputs =
  Eval.run dfg ~width:16 ~inputs

let simple_sum () =
  let dfg = compile_ok "s = a + b" in
  check (Alcotest.list Alcotest.string) "inputs" [ "a"; "b" ] dfg.Dfg.inputs;
  check (Alcotest.list Alcotest.string) "outputs" [ "s" ] dfg.Dfg.outputs;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "value" [ ("s", 7) ]
    (eval dfg [ ("a", 3); ("b", 4) ])

let precedence () =
  let dfg = compile_ok "y = a + b * c" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "a + (b*c)" [ ("y", 2 + (3 * 4)) ]
    (eval dfg [ ("a", 2); ("b", 3); ("c", 4) ]);
  let dfg2 = compile_ok "y = (a + b) * c" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "(a+b) * c" [ ("y", (2 + 3) * 4) ]
    (eval dfg2 [ ("a", 2); ("b", 3); ("c", 4) ]);
  (* '<' binds loosest *)
  let dfg3 = compile_ok "y = a + b < c * d" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "(a+b) < (c*d)" [ ("y", 1) ]
    (eval dfg3 [ ("a", 1); ("b", 1); ("c", 2); ("d", 2) ])

let left_associativity () =
  let dfg = compile_ok "y = a - b - c" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "(a-b)-c" [ ("y", 10 - 3 - 2) ]
    (eval dfg [ ("a", 10); ("b", 3); ("c", 2) ])

let constants_become_inputs () =
  let dfg = compile_ok "y = 3 * x" in
  check Alcotest.bool "k3 input" true (List.mem "k3" dfg.Dfg.inputs);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "value with k3 bound" [ ("y", 15) ]
    (eval dfg [ ("x", 5); ("k3", 3) ])

let cse_shares_subexpressions () =
  (* u*dx appears twice; only one multiplication is emitted for it *)
  let dfg = compile_ok "p = u * dx + a\nq = u * dx + b" in
  check Alcotest.int "3 ops total (1 shared mul + 2 adds)" 3 (List.length dfg.Dfg.ops);
  (* commutative orientation is also shared *)
  let dfg2 = compile_ok "p = u * dx + a\nq = dx * u + b" in
  check Alcotest.int "commuted operands still shared" 3 (List.length dfg2.Dfg.ops);
  (* non-commutative is not shared across orientations *)
  let dfg3 = compile_ok "p = u / dx + a\nq = dx / u + b" in
  check Alcotest.int "two divisions" 4 (List.length dfg3.Dfg.ops)

let output_directive () =
  let dfg = compile_ok "m = a + b\ny = m * c\noutput m" in
  check (Alcotest.list Alcotest.string) "m exported too" [ "m"; "y" ]
    (List.sort compare dfg.Dfg.outputs)

let comments_and_semicolons () =
  let dfg = compile_ok "# header\ny = a + b; z = y * c # trailing" in
  check Alcotest.int "2 ops" 2 (List.length dfg.Dfg.ops);
  check (Alcotest.list Alcotest.string) "outputs" [ "z" ] dfg.Dfg.outputs

let error_cases () =
  expect_error "";
  expect_error "y = ";
  expect_error "y = a +";
  expect_error "y = (a + b";
  expect_error "y = a ! b";
  expect_error "y = a + b extra";
  expect_error "y = a + b\ny = a";
  (* redefinition *)
  expect_error "y = x";
  (* aliasing *)
  expect_error "y = 5";
  (* constant assignment *)
  expect_error "output z\ny = a + b" (* undefined declared output *)

let error_has_line_number () =
  match Frontend.compile_diags ~name:"t" "a1 = x + y\nb1 = x +" with
  | Error ds ->
    check Alcotest.(list (pair (option int) string)) "one error, on line 2"
      [ (Some 2, "expected identifier, number or '('") ]
      (List.map (fun (d : Diagnostic.t) -> (d.line, d.message)) ds)
  | Ok _ -> Alcotest.fail "accepted"

let resources_respected () =
  let dfg =
    compile_ok ~resources:[ (Op.Mul, 1) ] "p = a * b\nq = c * d\nr = p + q"
  in
  (* one multiplier: the two independent muls serialize *)
  check Alcotest.bool "at least 3 steps" true (Dfg.num_csteps dfg >= 3)

let end_to_end_flow () =
  let dfg =
    compile_ok
      ~resources:[ (Op.Mul, 2); (Op.Add, 1); (Op.Sub, 1); (Op.Less, 1) ]
      "x1 = x + dx\nu1 = u - 3 * x * u * dx - 3 * y * dx\ny1 = y + u * dx\ncc = x1 < a\noutput x1"
  in
  let massign = Bistpath_core.Module_assign.single_function dfg in
  let r =
    Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options) dfg
      massign ~policy:Policy.dedicated_io
  in
  check Alcotest.bool "synthesizes" true (r.Flow.registers > 0);
  (* the datapath still computes the program *)
  let inputs = [ ("x", 2); ("dx", 1); ("u", 10); ("y", 4); ("a", 5); ("k3", 3) ] in
  check Alcotest.bool "interp equivalent" true
    (Bistpath_datapath.Interp.equivalent_to_dfg r.Flow.datapath ~width:16 ~inputs)

let suite =
  [
    case "simple sum" simple_sum;
    case "precedence" precedence;
    case "left associativity" left_associativity;
    case "constants become inputs" constants_become_inputs;
    case "CSE shares subexpressions" cse_shares_subexpressions;
    case "output directive" output_directive;
    case "comments and semicolons" comments_and_semicolons;
    case "error cases" error_cases;
    case "errors carry line numbers" error_has_line_number;
    case "resource-constrained scheduling" resources_respected;
    case "end-to-end flow from program text" end_to_end_flow;
  ]
