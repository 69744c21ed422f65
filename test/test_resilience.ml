(* Tests for the resilience layer: budgets and cancellation tokens,
   the budgeted sequential map, anytime solvers reporting truncation
   through the budget's stop reason,
   accumulated diagnostics, and deterministic fault injection —
   including that a leaf-budget truncation is deterministic. *)

module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Diagnostic = Bistpath_resilience.Diagnostic
module Inject = Bistpath_resilience.Inject
module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Allocator = Bistpath_bist.Allocator
module Telemetry = Bistpath_telemetry.Telemetry
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
  for _ = 1 to 1000 do
    Budget.node b;
    Budget.leaf b
  done;
  check Alcotest.bool "never stops" false (Budget.should_stop b);
  check Alcotest.int "no node count" 0 (Budget.nodes b);
  check Alcotest.bool "no stop reason" true (Budget.stop_reason b = None)

let budget_leaf_trip () =
  let b = Budget.create ~leaf_budget:3 () in
  Budget.leaf b;
  Budget.leaf b;
  check Alcotest.bool "under budget" false (Budget.should_stop b);
  Budget.leaf b;
  check Alcotest.bool "tripped" true (Budget.should_stop b);
  match Budget.stop_reason b with
  | Some (Cancel.Leaf_budget 3) -> ()
  | r ->
    Alcotest.failf "wrong reason: %s"
      (match r with Some x -> Cancel.describe x | None -> "none")

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

let allocator_complete () =
  let inst = Option.get (B.by_tag "ex1") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let budget = Budget.create () in
  let sol = Allocator.solve ~budget r.Flow.datapath in
  check Alcotest.bool "exact" true sol.Allocator.exact;
  check Alcotest.bool "nodes counted" true (Budget.nodes budget > 0);
  check Alcotest.bool "no stop reason" true (Budget.stop_reason budget = None)

(* A budget whose token is already cancelled, as a driver shutting down
   would leave it. *)
let cancelled_budget () =
  let token = Cancel.create () in
  ignore (Cancel.cancel token (Cancel.Cancelled "test"));
  Budget.create ~cancel:token ()

let allocator_cancelled_degrades () =
  let inst = Option.get (B.by_tag "Paulin") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let budget = cancelled_budget () in
  let sol = Allocator.solve ~budget r.Flow.datapath in
  (* still a usable (greedy-seeded) solution, just not proven optimal *)
  check Alcotest.bool "inexact" false sol.Allocator.exact;
  check Alcotest.bool "has embeddings" true (sol.Allocator.embeddings <> []);
  check Alcotest.bool "cancelled" true
    (Budget.stop_reason budget = Some (Cancel.Cancelled "test"))

let flow_cancelled_degrades () =
  let inst = Option.get (B.by_tag "Paulin") in
  let budget = cancelled_budget () in
  let r =
    Flow.run ~budget ~style:Flow.Traditional inst.B.dfg inst.B.massign
      ~policy:inst.B.policy
  in
  check Alcotest.bool "cancelled" true
    (Budget.stop_reason budget = Some (Cancel.Cancelled "test"));
  check Alcotest.bool "inexact" false r.Flow.bist.Allocator.exact;
  check Alcotest.bool "sessions still valid" true
    (Bistpath_bist.Session.num_sessions r.Flow.sessions >= 1)

let front points = List.map (fun p -> (p.Pareto.delta_gates, p.Pareto.sessions)) points
let front_t = Alcotest.(list (pair int int))

let pareto_leaf_budget_width_independent () =
  let inst = Option.get (B.by_tag "ewf") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let explore () =
    let budget = Budget.create ~leaf_budget:60 () in
    let points = Pareto.explore ~budget r.Flow.datapath in
    (Budget.stop_reason budget, front points)
  in
  let (r1, f1) = explore () and (r2, f2) = explore () in
  check Alcotest.bool "degraded" true (r1 = Some (Cancel.Leaf_budget 60));
  check Alcotest.bool "degraded again" true (r2 = Some (Cancel.Leaf_budget 60));
  check front_t "identical truncated front" f1 f2;
  check Alcotest.bool "front non-empty" true (f1 <> [])

let pareto_unbudgeted_equals_budgeted_untripped () =
  let inst = Option.get (B.by_tag "ex2") in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let plain = Pareto.explore r.Flow.datapath in
  let roomy = Budget.create ~leaf_budget:10_000_000 () in
  let budgeted = Pareto.explore ~budget:roomy r.Flow.datapath in
  check Alcotest.bool "completes" true (Budget.stop_reason roomy = None);
  check front_t "same front" (front plain) (front budgeted)

(* The sweep's fixed leaf cap does not trip the budget: on ewf it stops
   enumerating just past 20,000 leaves and reports nothing. *)
let pareto_leaf_cap_is_silent () =
  let inst = Option.get (B.by_tag "ewf") in
  let r =
    Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
      inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  let budget = Budget.create ~leaf_budget:10_000_000 () in
  let points = Pareto.explore ~budget r.Flow.datapath in
  check Alcotest.int "leaves counted" 20_016 (Budget.leaves budget);
  check Alcotest.bool "no stop reason" true (Budget.stop_reason budget = None);
  check front_t "same front as unbudgeted" (front (Pareto.explore r.Flow.datapath))
    (front points)

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
  let all = Diagnostic.all coll in
  (* 2 kept errors + 1 trailing truncation note *)
  check Alcotest.int "kept + note" 3 (List.length all);
  check Alcotest.(list string) "the first errors are kept, then the note"
    [ "problem 1"; "problem 2"; "3 more errors not shown (raise --max-errors to see them)" ]
    (List.map (fun (d : Diagnostic.t) -> d.message) all);
  check Alcotest.bool "note last" true
    ((List.nth all 2).Diagnostic.severity = Diagnostic.Note)

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
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.line) errs)

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
  check Alcotest.bool "no fire" false (Inject.should_fire "pareto.leaf")

let inject_certain_hit () =
  with_injection [ ("allocator.leaf", 1.0) ] ~seed:1 (fun () ->
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

(* The explored-node counter is reported even when the search dies at
   its first leaf: 3 nodes on fir8's testable flow, whose first descent
   reaches a leaf, and 436 on ewf's, which backtracks first. *)
let inject_allocator_counts_nodes () =
  List.iter
    (fun (tag, expected) ->
      let inst = Option.get (B.by_tag tag) in
      let r =
        Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
          inst.B.dfg inst.B.massign ~policy:inst.B.policy
      in
      let recorder = Telemetry.create () in
      let prev = Telemetry.installed () in
      Fun.protect
        ~finally:(fun () ->
          match prev with Some p -> Telemetry.install p | None -> Telemetry.uninstall ())
        (fun () ->
          Telemetry.install recorder;
          with_injection [ ("allocator.leaf", 1.0) ] ~seed:1 (fun () ->
              match Allocator.solve r.Flow.datapath with
              | _ -> Alcotest.fail "expected injected crash"
              | exception Inject.Injected "allocator.leaf" -> ()));
      check Alcotest.int (tag ^ ": nodes explored before the crash") expected
        (Telemetry.counter recorder "bist.embeddings_explored"))
    [ ("fir8", 3); ("ewf", 436) ]

let suite =
  [ case "budget: unlimited is inert" budget_unlimited;
    case "budget: leaf quota trips" budget_leaf_trip;
    case "budget: deadline trips" budget_deadline_trip;
    case "budget: constructor validation" budget_validation;
    case "cancel: first reason wins" cancel_first_reason_wins;
    case "cancel: shared kill switch" cancel_shared_token;
    case "cancel: never is immutable" cancel_never_is_sacred;
    case "par: budget map parity when untripped" map_budget_untripped_parity;
    case "par: pre-tripped budget evaluates nothing" map_budget_pretripped_all_none;
    case "allocator: complete outcome" allocator_complete;
    case "allocator: node budget degrades" allocator_cancelled_degrades;
    case "allocator: leaf crash still counts nodes" inject_allocator_counts_nodes;
    case "flow: run_outcome tags degradation" flow_cancelled_degrades;
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
    case "inject: allocator unwinds and recovers" inject_allocator_unwinds;
    case "pareto: leaf cap is silent" pareto_leaf_cap_is_silent ]
