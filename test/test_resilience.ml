(* Tests for the resilience layer: budgets and cancellation tokens,
   the budgeted sequential map, anytime (degraded) solver outcomes,
   accumulated diagnostics, and deterministic fault injection —
   including that a leaf-budget truncation is deterministic. *)

module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Outcome = Bistpath_resilience.Outcome
module Diagnostic = Bistpath_resilience.Diagnostic
module Inject = Bistpath_resilience.Inject
module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Allocator = Bistpath_bist.Allocator
module Pareto = Bistpath_bist.Pareto
module Library = Bistpath_gatelevel.Library
module Fault_sim = Bistpath_gatelevel.Fault_sim
module Podem = Bistpath_gatelevel.Podem
module Parser = Bistpath_dfg.Parser
module Frontend = Bistpath_dfg.Frontend

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* --- budgets and tokens -------------------------------------------- *)

let budget_unlimited () =
  let b = Budget.unlimited in
  check Alcotest.bool "unlimited" true (Budget.is_unlimited b);
  for _ = 1 to 1000 do
    Budget.node b;
    Budget.leaf b
  done;
  check Alcotest.bool "never stops" false (Budget.should_stop b);
  check Alcotest.int "no node count" 0 (Budget.nodes b);
  check Alcotest.bool "tag complete" true (Outcome.is_complete (Budget.tag b 42))

let budget_leaf_trip () =
  let b = Budget.create ~leaf_budget:3 () in
  Budget.leaf b;
  Budget.leaf b;
  check Alcotest.bool "under budget" false (Budget.should_stop b);
  Budget.leaf b;
  check Alcotest.bool "tripped" true (Budget.should_stop b);
  (match Budget.stop_reason b with
  | Some (Cancel.Leaf_budget 3) -> ()
  | r ->
    Alcotest.failf "wrong reason: %s"
      (match r with Some x -> Cancel.describe x | None -> "none"));
  match Budget.tag b "front" with
  | Outcome.Degraded ("front", Cancel.Leaf_budget 3) -> ()
  | _ -> Alcotest.fail "tag should be Degraded"

let budget_node_trip () =
  let b = Budget.create ~node_budget:10 () in
  for _ = 1 to 10 do
    Budget.node b
  done;
  check Alcotest.bool "tripped" true (Budget.should_stop b);
  check Alcotest.int "counted" 10 (Budget.nodes b)

let budget_deadline_trip () =
  let b = Budget.create ~deadline_s:0.005 () in
  check Alcotest.bool "not yet" false (Budget.should_stop b);
  (* burn past the deadline; should_stop reads the clock itself. The
     iteration cap keeps a broken clock from hanging the suite. *)
  let spins = ref 0 in
  while (not (Budget.should_stop b)) && !spins < 200_000_000 do
    incr spins;
    ignore (Sys.opaque_identity !spins)
  done;
  check Alcotest.bool "tripped" true (Budget.should_stop b);
  match Budget.stop_reason b with
  | Some (Cancel.Deadline _) -> ()
  | _ -> Alcotest.fail "expected Deadline reason"

let budget_validation () =
  Alcotest.check_raises "deadline must be positive"
    (Invalid_argument "Budget.create: deadline_s must be > 0") (fun () ->
      ignore (Budget.create ~deadline_s:0.0 ()));
  Alcotest.check_raises "leaf budget must be >= 1"
    (Invalid_argument "Budget.create: leaf_budget must be >= 1") (fun () ->
      ignore (Budget.create ~leaf_budget:0 ()))

let cancel_first_reason_wins () =
  let t = Cancel.create () in
  check Alcotest.bool "fresh" false (Cancel.cancelled t);
  check Alcotest.bool "first" true (Cancel.cancel t (Cancel.Cancelled "a"));
  check Alcotest.bool "second ignored" false
    (Cancel.cancel t (Cancel.Cancelled "b"));
  match Cancel.reason t with
  | Some (Cancel.Cancelled "a") -> ()
  | _ -> Alcotest.fail "first reason should win"

let cancel_shared_token () =
  (* one kill switch linked to two budgets *)
  let t = Cancel.create () in
  let b1 = Budget.create ~cancel:t () in
  let b2 = Budget.create ~cancel:t ~leaf_budget:1000 () in
  ignore (Cancel.cancel t (Cancel.Cancelled "driver shutdown"));
  check Alcotest.bool "b1 stops" true (Budget.should_stop b1);
  check Alcotest.bool "b2 stops" true (Budget.should_stop b2)

let cancel_never_is_sacred () =
  check Alcotest.bool "never cancelled" false (Cancel.cancelled Cancel.never);
  Alcotest.check_raises "cancelling never raises"
    (Invalid_argument "Cancel.cancel: the never token cannot be cancelled")
    (fun () -> ignore (Cancel.cancel Cancel.never (Cancel.Cancelled "x")))

let outcome_accessors () =
  let c = Outcome.Complete 1 in
  let d = Outcome.Degraded (2, Cancel.Leaf_budget 5) in
  check Alcotest.int "value complete" 1 (Outcome.value c);
  check Alcotest.int "value degraded" 2 (Outcome.value d);
  check Alcotest.bool "is_complete" true (Outcome.is_complete c);
  check Alcotest.bool "not complete" false (Outcome.is_complete d);
  check Alcotest.int "map" 4 (Outcome.value (Outcome.map (fun x -> 2 * x) d));
  match Outcome.of_reason 7 None with
  | Outcome.Complete 7 -> ()
  | _ -> Alcotest.fail "of_reason None = Complete"

(* --- budgeted map ---------------------------------------------------- *)

let map_budget_untripped_parity () =
  let b = Budget.create ~leaf_budget:1_000_000 () in
  let xs = List.init 200 Fun.id in
  let expect = List.map (fun x -> Some (x * x)) xs in
  check (Alcotest.list (Alcotest.option Alcotest.int)) "all evaluated" expect
    (Budget.map b (fun x -> x * x) xs);
  check (Alcotest.list (Alcotest.option Alcotest.int)) "unlimited evaluates all" expect
    (Budget.map Budget.unlimited (fun x -> x * x) xs);
  (* a quota tripping mid-map stops before the next element *)
  let b = Budget.create ~leaf_budget:5 () in
  let r = Budget.map b (fun x -> Budget.leaf b; x) xs in
  check (Alcotest.list (Alcotest.option Alcotest.int)) "cut after the tripping leaf"
    (List.map (fun x -> if x < 5 then Some x else None) xs)
    r

let map_budget_pretripped_all_none () =
  let b = Budget.create ~leaf_budget:1 () in
  Budget.leaf b;
  check Alcotest.bool "tripped" true (Budget.should_stop b);
  let evaluated = ref 0 in
  let r = Budget.map b (fun x -> incr evaluated; x + 1) (List.init 50 Fun.id) in
  check Alcotest.bool "nothing evaluated" true (List.for_all Option.is_none r);
  check Alcotest.int "f never called" 0 !evaluated

(* --- anytime solvers ----------------------------------------------- *)

let allocator_outcome_complete () =
  let inst = Option.get (B.by_tag "ex1") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  match Allocator.solve_outcome r.Flow.datapath with
  | Outcome.Complete sol -> check Alcotest.bool "exact" true sol.Allocator.exact
  | Outcome.Degraded _ -> Alcotest.fail "ex1 should complete"

let allocator_outcome_node_budget () =
  let inst = Option.get (B.by_tag "Paulin") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let budget = Budget.create ~node_budget:3 () in
  match Allocator.solve_outcome ~budget r.Flow.datapath with
  | Outcome.Degraded (sol, _) ->
    (* still a usable (greedy-seeded) solution, just not proven optimal *)
    check Alcotest.bool "inexact" false sol.Allocator.exact;
    check Alcotest.bool "has embeddings" true (sol.Allocator.embeddings <> [])
  | Outcome.Complete _ -> Alcotest.fail "3-node budget must degrade Paulin"

let flow_run_outcome_degrades () =
  let inst = Option.get (B.by_tag "Paulin") in
  let budget = Budget.create ~node_budget:3 () in
  match
    Flow.run_outcome ~budget ~style:Flow.Traditional inst.B.dfg inst.B.massign
      ~policy:inst.B.policy
  with
  | Outcome.Degraded (r, Cancel.Node_budget _) ->
    check Alcotest.bool "sessions still valid" true
      (Bistpath_bist.Session.num_sessions r.Flow.sessions >= 1)
  | Outcome.Degraded _ -> Alcotest.fail "expected node-budget reason"
  | Outcome.Complete _ -> Alcotest.fail "expected degraded flow"

let pareto_leaf_budget_width_independent () =
  let inst = Option.get (B.by_tag "ewf") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let explore () =
    let budget = Budget.create ~leaf_budget:60 () in
    Pareto.explore_outcome ~budget r.Flow.datapath
  in
  let front o =
    List.map (fun p -> (p.Pareto.delta_gates, p.Pareto.sessions)) (Outcome.value o)
  in
  let o1 = explore () and o2 = explore () in
  check Alcotest.bool "degraded" false (Outcome.is_complete o1);
  check Alcotest.bool "degraded again" false (Outcome.is_complete o2);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "identical truncated front" (front o1) (front o2);
  check Alcotest.bool "front non-empty" true (front o1 <> [])

let pareto_unbudgeted_equals_budgeted_untripped () =
  let inst = Option.get (B.by_tag "ex2") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let plain = Pareto.explore r.Flow.datapath in
  let roomy = Budget.create ~leaf_budget:10_000_000 () in
  let tagged = Pareto.explore_outcome ~budget:roomy r.Flow.datapath in
  check Alcotest.bool "completes" true (Outcome.is_complete tagged);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "same front"
    (List.map (fun p -> (p.Pareto.delta_gates, p.Pareto.sessions)) plain)
    (List.map (fun p -> (p.Pareto.delta_gates, p.Pareto.sessions)) (Outcome.value tagged))

let fault_sim_pretripped_skips_everything () =
  let circuit = Library.of_kind Bistpath_dfg.Op.Add ~width:4 in
  let faults = Bistpath_gatelevel.Fault.collapsed circuit in
  let patterns = List.init 8 (fun i -> ((i * 5) mod 16, (i * 3) mod 16)) in
  let budget = Budget.create ~leaf_budget:1 () in
  Budget.leaf budget;
  let r = Fault_sim.run_operand_patterns ~budget circuit ~width:4 ~faults ~patterns in
  check Alcotest.int "nothing detected" 0 r.Fault_sim.detected;
  check Alcotest.int "everything skipped" r.Fault_sim.total
    (List.length r.Fault_sim.skipped + List.length r.Fault_sim.undetected);
  (* and the same call with an unlimited budget skips nothing *)
  let full = Fault_sim.run_operand_patterns circuit ~width:4 ~faults ~patterns in
  check Alcotest.int "no skips unbudgeted" 0 (List.length full.Fault_sim.skipped)

let podem_budget_accounts_every_fault () =
  let circuit = Library.of_kind Bistpath_dfg.Op.And ~width:2 in
  let total cls =
    List.length cls.Podem.tested
    + List.length cls.Podem.untestable
    + List.length cls.Podem.aborted
    + List.length cls.Podem.skipped
  in
  let full = Podem.classify_all circuit in
  check Alcotest.int "unbudgeted: none skipped" 0 (List.length full.Podem.skipped);
  let budget = Budget.create ~leaf_budget:1 () in
  Budget.leaf budget;
  let cut = Podem.classify_all ~budget circuit in
  check Alcotest.int "same universe" (total full) (total cut);
  check Alcotest.bool "something skipped" true (cut.Podem.skipped <> [])

(* --- diagnostics --------------------------------------------------- *)

let diagnostic_collector_cap () =
  let coll = Diagnostic.collector ~max_errors:2 () in
  for i = 1 to 5 do
    Diagnostic.emit coll (Diagnostic.errorf ~line:i "problem %d" i)
  done;
  check Alcotest.int "kept up to cap" 2 (Diagnostic.errors coll);
  check Alcotest.bool "truncated" true (Diagnostic.truncated coll);
  check Alcotest.int "dropped" 3 (Diagnostic.dropped coll);
  let all = Diagnostic.all coll in
  (* 2 kept errors + 1 trailing truncation note *)
  check Alcotest.int "kept + note" 3 (List.length all);
  (match List.rev all with
  | last :: _ -> check Alcotest.bool "note last" true (last.Diagnostic.severity = Diagnostic.Note)
  | [] -> Alcotest.fail "empty");
  match Diagnostic.first_error coll with
  | Some d -> check Alcotest.string "first kept" "problem 1" d.Diagnostic.message
  | None -> Alcotest.fail "has errors"

let diagnostic_rendering () =
  check Alcotest.string "bare" "error: boom"
    (Diagnostic.to_string (Diagnostic.error "boom"));
  check Alcotest.string "located" "x.dfg:3: warning: odd"
    (Diagnostic.to_string (Diagnostic.warning ~file:"x.dfg" ~line:3 "odd"))

let parser_accumulates_errors () =
  let text = "dfg t\ninput a b\nop +1 = a + b -> c @ 1\nzzz\nop ?2 = a ? b -> d @ 2\n" in
  let _, diags = Parser.parse_string_diags text in
  let errs =
    List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) diags
  in
  check Alcotest.int "both bad lines" 2 (List.length errs);
  check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "line numbers" [ Some 4; Some 5 ]
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.line) errs);
  (* the legacy API reports exactly the first of those *)
  match Parser.parse_string text with
  | Error msg -> check Alcotest.string "legacy = first" "line 4: unknown directive \"zzz\"" msg
  | Ok _ -> Alcotest.fail "should fail"

let frontend_accumulates_errors () =
  let text = "x = a +;\ny = (b\nz = a * a\nz = a + b\n" in
  match Frontend.compile_diags ~name:"t" text with
  | Ok _ -> Alcotest.fail "should fail"
  | Error diags ->
    let errs =
      List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) diags
    in
    check Alcotest.bool "several errors at once" true (List.length errs >= 3);
    (* statement recovery: the redefinition on line 4 is still caught *)
    check Alcotest.bool "redefinition reported" true
      (List.exists
         (fun (d : Diagnostic.t) ->
           d.Diagnostic.message = "z defined twice")
         errs)

let dfg_make_diags_accumulates () =
  let ops =
    [ { Bistpath_dfg.Op.id = "+1"; kind = Bistpath_dfg.Op.Add; left = "a"; right = "b"; out = "c" };
      { Bistpath_dfg.Op.id = "+1"; kind = Bistpath_dfg.Op.Add; left = "c"; right = "zz"; out = "d" } ]
  in
  match
    Bistpath_dfg.Dfg.make_diags ~name:"t" ~ops ~inputs:[ "a"; "b" ]
      ~outputs:[ "d" ] ~schedule:[ ("+1", 1) ] ()
  with
  | Ok _ -> Alcotest.fail "invalid DFG accepted"
  | Error diags ->
    (* duplicate id and unknown operand both reported in one pass *)
    check Alcotest.bool "at least two violations" true (List.length diags >= 2)

(* --- fault injection ----------------------------------------------- *)

let with_injection config ~seed f =
  Fun.protect ~finally:(fun () -> Inject.configure []) (fun () ->
      Inject.configure ~seed config;
      f ())

let inject_disarmed_by_default () =
  Inject.configure [];
  check Alcotest.bool "disarmed" false (Inject.enabled ());
  check Alcotest.bool "no fire" false (Inject.should_fire "pareto.leaf")

let inject_certain_hit () =
  with_injection [ ("allocator.leaf", 1.0) ] ~seed:1 (fun () ->
      check Alcotest.bool "armed" true (Inject.enabled ());
      Alcotest.check_raises "fires" (Inject.Injected "allocator.leaf") (fun () ->
          Inject.fire "allocator.leaf");
      (* other sites stay quiet *)
      check Alcotest.bool "other site" false (Inject.should_fire "pareto.leaf"))

let inject_sys_error_variant () =
  with_injection [ ("telemetry.write", 1.0) ] ~seed:1 (fun () ->
      Alcotest.check_raises "sys error"
        (Sys_error "injected fault at site telemetry.write") (fun () ->
          Inject.fire_sys_error "telemetry.write"))

let inject_stream_deterministic () =
  let draw () =
    with_injection [ ("pareto.leaf", 0.4) ] ~seed:77 (fun () ->
        List.init 64 (fun _ -> Inject.should_fire "pareto.leaf"))
  in
  let a = draw () and b = draw () in
  check (Alcotest.list Alcotest.bool) "same stream" a b;
  check Alcotest.bool "mixed stream" true
    (List.exists Fun.id a && List.exists (fun x -> not x) a)

let inject_allocator_unwinds () =
  let inst = Option.get (B.by_tag "ex1") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  with_injection [ ("allocator.leaf", 1.0) ] ~seed:1 (fun () ->
      match Allocator.solve r.Flow.datapath with
      | _ -> Alcotest.fail "expected injected crash"
      | exception Inject.Injected "allocator.leaf" -> ());
  (* after disarming, the same call succeeds *)
  check Alcotest.bool "recovers" true (Allocator.solve r.Flow.datapath).Allocator.exact

let suite =
  [ case "budget: unlimited is inert" budget_unlimited;
    case "budget: leaf quota trips" budget_leaf_trip;
    case "budget: node quota trips" budget_node_trip;
    case "budget: deadline trips" budget_deadline_trip;
    case "budget: constructor validation" budget_validation;
    case "cancel: first reason wins" cancel_first_reason_wins;
    case "cancel: shared kill switch" cancel_shared_token;
    case "cancel: never is immutable" cancel_never_is_sacred;
    case "outcome: accessors" outcome_accessors;
    case "par: budget map parity when untripped" map_budget_untripped_parity;
    case "par: pre-tripped budget evaluates nothing" map_budget_pretripped_all_none;
    case "allocator: complete outcome" allocator_outcome_complete;
    case "allocator: node budget degrades" allocator_outcome_node_budget;
    case "flow: run_outcome tags degradation" flow_run_outcome_degrades;
    case "pareto: truncated front is width-independent"
      pareto_leaf_budget_width_independent;
    case "pareto: untripped budget is bit-identical"
      pareto_unbudgeted_equals_budgeted_untripped;
    case "fault-sim: pre-tripped budget skips all" fault_sim_pretripped_skips_everything;
    case "podem: budget accounts for every fault" podem_budget_accounts_every_fault;
    case "diagnostic: collector caps and notes" diagnostic_collector_cap;
    case "diagnostic: rendering" diagnostic_rendering;
    case "parser: accumulates errors" parser_accumulates_errors;
    case "frontend: accumulates errors" frontend_accumulates_errors;
    case "dfg: make_diags accumulates" dfg_make_diags_accumulates;
    case "inject: disarmed by default" inject_disarmed_by_default;
    case "inject: certain hit" inject_certain_hit;
    case "inject: sys-error variant" inject_sys_error_variant;
    case "inject: per-site stream deterministic" inject_stream_deterministic;
    case "inject: allocator unwinds and recovers" inject_allocator_unwinds ]
