(* The static verifier: clean seed designs must check clean; each
   hand-corrupted artifact must be caught by exactly the rule that owns
   that class of damage; crashed rules degrade to CHK000 findings; a
   tripped budget skips rules instead of blocking. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Module_assign = Bistpath_core.Module_assign
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Allocator = Bistpath_bist.Allocator
module Resource = Bistpath_bist.Resource
module Ipath = Bistpath_ipath.Ipath
module Budget = Bistpath_resilience.Budget
module Diagnostic = Bistpath_resilience.Diagnostic
module Inject = Bistpath_resilience.Inject
module Json = Bistpath_util.Json
module Check = Bistpath_check.Check
module Rule = Bistpath_check.Rule
module Equiv_rules = Bistpath_check.Equiv_rules
module Equiv = Bistpath_rtl.Equiv
module Lifetime = Bistpath_dfg.Lifetime
module Ugraph = Bistpath_graphs.Ugraph
module Telemetry = Bistpath_telemetry.Telemetry

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let instance tag =
  match B.by_tag tag with
  | Some i -> i
  | None -> Alcotest.fail ("unknown benchmark " ^ tag)

let flow_ctx ?(vectors = 0) ~style tag =
  let inst = instance tag in
  let label = match style with Flow.Traditional -> "traditional" | _ -> "testable" in
  let r =
    Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  ( inst,
    r,
    Check.ctx_of_flow ~vectors ~design:(tag ^ "/" ^ label) ~width:8 inst.B.dfg
      inst.B.massign ~policy:inst.B.policy r )

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let error_rules (rep : Check.report) =
  List.sort_uniq compare
    (List.filter_map
       (fun (f : Check.finding) ->
         if f.Check.severity = Diagnostic.Error then Some f.Check.rule else None)
       rep.Check.findings)

let rules_list = Alcotest.(list string)

(* --- satellite 1: every seed benchmark checks clean ----------------- *)

let clean_benchmarks () =
  List.iter
    (fun tag ->
      List.iter
        (fun style ->
          let _, _, ctx = flow_ctx ~vectors:3 ~style tag in
          let rep = Check.run ctx in
          check Alcotest.int (ctx.Check.design ^ " errors") 0 (Check.errors rep);
          check Alcotest.int (ctx.Check.design ^ " warnings") 0 (Check.warnings rep);
          check Alcotest.int (ctx.Check.design ^ " crashed") 0 rep.Check.rules_crashed;
          check Alcotest.bool (ctx.Check.design ^ " complete") false rep.Check.degraded)
        [ Flow.Traditional; Flow.Testable Testable_alloc.default_options ])
    B.all_tags

(* --- corrupted artifact 1: conflicting variables share a register --- *)

(* x lives (1,3], y lives (2,3]; both in R1. The data path is built by
   hand to be consistent with that (broken) assignment, so the damage is
   visible to ALC001 alone: statically everything routes, only the
   allocation invariant is violated. *)
let broken_coloring_ctx () =
  let ops =
    [ { Op.id = "+1"; kind = Op.Add; left = "a"; right = "b"; out = "x" };
      { Op.id = "+2"; kind = Op.Add; left = "b"; right = "c"; out = "y" };
      { Op.id = "+3"; kind = Op.Add; left = "x"; right = "y"; out = "o" };
    ]
  in
  let dfg =
    Dfg.make ~name:"broken" ~ops ~inputs:[ "a"; "b"; "c" ] ~outputs:[ "o" ]
      ~schedule:[ ("+1", 1); ("+2", 2); ("+3", 3) ]
  in
  let massign = Module_assign.single_function dfg in
  let policy = Policy.dedicated_io in
  let mid opid = (Massign.unit_of_op massign opid).Massign.mid in
  let regalloc = Regalloc.make [ ("R1", [ "x"; "y" ]); ("R2", [ "o" ]) ] in
  let reg rid vars dedicated = { Datapath.rid; vars; dedicated } in
  let regs =
    [ reg "R1" [ "x"; "y" ] false;
      reg "R2" [ "o" ] false;
      reg "IN_a" [ "a" ] true;
      reg "IN_b" [ "b" ] true;
      reg "IN_c" [ "c" ] true;
    ]
  in
  let route opid l_reg r_reg out_reg =
    { Datapath.opid; l_reg; r_reg; swapped = false; out_reg }
  in
  let routes =
    [ route "+1" "IN_a" "IN_b" "R1";
      route "+2" "IN_b" "IN_c" "R1";
      route "+3" "R1" "R1" "R2";
    ]
  in
  let from_units opids =
    List.sort_uniq compare (List.map (fun o -> Datapath.From_unit (mid o)) opids)
  in
  let reg_writers =
    [ ("IN_a", [ Datapath.From_port "a" ]);
      ("IN_b", [ Datapath.From_port "b" ]);
      ("IN_c", [ Datapath.From_port "c" ]);
      ("R1", from_units [ "+1"; "+2" ]);
      ("R2", from_units [ "+3" ]);
    ]
  in
  let datapath =
    { Datapath.dfg; massign; regs; routes; reg_writers; outputs = [ ("o", "R2") ] }
  in
  Check.make_ctx ~design:"broken-coloring" ~width:4 dfg massign ~policy regalloc datapath

let catches_broken_coloring () =
  let ctx = broken_coloring_ctx () in
  let rep = Check.run ctx in
  check rules_list "only ALC001 fires" [ "ALC001" ] (error_rules rep);
  check Alcotest.bool "gating" true (Check.errors rep > 0);
  let f = List.find (fun (f : Check.finding) -> f.Check.rule = "ALC001") rep.Check.findings in
  check Alcotest.string "names the register" "R1" f.Check.subject

(* --- corrupted artifact 2: severed interconnect edge ---------------- *)

let severed_ctx () =
  let inst = instance "ex1" in
  let r =
    Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  let dp = r.Flow.datapath in
  (* sever a unit->register edge on a multiplexed register input, so the
     remaining writer keeps every net driven: the damage is purely a
     scheduled transfer with no physical path *)
  let rid, victim =
    let pick (rid, ws) =
      if List.length ws < 2 then None
      else
        Option.map
          (fun w -> (rid, w))
          (List.find_opt (function Datapath.From_unit _ -> true | _ -> false) ws)
    in
    match List.find_map pick dp.Datapath.reg_writers with
    | Some x -> x
    | None -> Alcotest.fail "ex1 has no multiplexed register input to sever"
  in
  let reg_writers =
    List.map
      (fun (r, ws) ->
        if String.equal r rid then (r, List.filter (fun w -> w <> victim) ws) else (r, ws))
      dp.Datapath.reg_writers
  in
  Check.make_ctx ~design:"severed" ~width:8 inst.B.dfg inst.B.massign
    ~policy:inst.B.policy r.Flow.regalloc
    { dp with Datapath.reg_writers }

let catches_severed_interconnect () =
  let rep = Check.run (severed_ctx ()) in
  check rules_list "only DP003 fires" [ "DP003" ] (error_rules rep);
  check Alcotest.bool "gating" true (Check.errors rep > 0)

(* --- tampered RTL: the RTL rules audit the parsed-back text --------- *)

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.fail ("tamper target not found: " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* The flow's ctx with its parse-back replaced by that of the emitted RTL
   after [tamper]; everything else stays as the flow produced it. *)
let tampered_ctx ?vectors tag tamper =
  let _, _, ctx = flow_ctx ?vectors ~style:Flow.Traditional tag in
  let rtl =
    match
      Equiv_rules.emitted ~width:8 ?bist:ctx.Check.bist ?sessions:ctx.Check.sessions
        ctx.Check.datapath
    with
    | Some rtl -> rtl
    | None -> Alcotest.fail (tag ^ " should emit")
  in
  { ctx with Check.rtl = lazy (Some (Equiv.parse_back (tamper rtl))) }

let fired (rep : Check.report) =
  List.sort_uniq compare (List.map (fun (f : Check.finding) -> f.Check.rule) rep.Check.findings)

let subjects rule (rep : Check.report) =
  List.sort_uniq compare
    (List.filter_map
       (fun (f : Check.finding) -> if f.Check.rule = rule then Some f.Check.subject else None)
       rep.Check.findings)

let before_endmodule extra = replace_once ~sub:"\nendmodule" ~by:("\n" ^ extra ^ "endmodule")

let catches_combinational_loop () =
  let rep =
    Check.run
      (tampered_ctx "ex1"
         (before_endmodule
            "  wire [7:0] loopa, loopb;\n  assign loopa = loopb;\n  assign loopb = loopa;\n"))
  in
  check rules_list "only RTL001 fires" [ "RTL001" ] (fired rep);
  let f = List.find (fun (f : Check.finding) -> f.Check.rule = "RTL001") rep.Check.findings in
  check Alcotest.string "loop members named" "combinational loop through loopa -> loopb"
    f.Check.detail

let catches_undriven_wire () =
  let rep = Check.run (tampered_ctx "ex1" (replace_once ~sub:"  assign l_M1 = q_R1;\n" ~by:"")) in
  (* the unit now reads nothing: the parse-back no longer matches either *)
  check rules_list "RTL002 and RTL005 fire" [ "RTL002"; "RTL005" ] (fired rep);
  check rules_list "undriven net" [ "l_M1" ] (subjects "RTL002" rep)

let catches_floating_wire () =
  let rep =
    Check.run
      (tampered_ctx "ex1" (before_endmodule "  wire [7:0] spare;\n  assign spare = q_R3;\n"))
  in
  check rules_list "only RTL003 fires" [ "RTL003" ] (fired rep);
  check rules_list "no errors" [] (error_rules rep);
  check rules_list "floating net" [ "spare" ] (subjects "RTL003" rep)

let catches_multi_driven_wire () =
  let rep = Check.run (tampered_ctx "ex1" (before_endmodule "  assign l_M1 = q_R2;\n")) in
  (* elaboration refuses the second driver, so RTL005 reports it too *)
  check rules_list "RTL004 and RTL005 fire" [ "RTL004"; "RTL005" ] (fired rep);
  check rules_list "multi-driven net" [ "l_M1" ] (subjects "RTL004" rep)

let catches_narrow_wire () =
  let rep =
    Check.run
      (tampered_ctx "ex1" (replace_once ~sub:"  wire [7:0] l_M1;" ~by:"  wire [3:0] l_M1;"))
  in
  check rules_list "only DP002 fires" [ "DP002" ] (fired rep);
  (* the 4-bit wire truncates the register it copies and starves the adder *)
  check rules_list "both ends of the narrowed wire" [ "l_M1"; "q_R1" ] (subjects "DP002" rep)

let catches_swapped_operands () =
  let rep =
    Check.run
      (tampered_ctx ~vectors:8 "Paulin"
         (replace_once ~sub:".a(l_SUB), .b(r_SUB)" ~by:".a(r_SUB), .b(l_SUB)"))
  in
  check rules_list "RTL005 and EQ002 fire" [ "EQ002"; "RTL005" ] (fired rep)

(* analyze runs only the ABS family: it must never pay for the parse-back *)
let parse_back_stays_lazy () =
  let _, _, ctx = flow_ctx ~style:Flow.Traditional "ex1" in
  ignore (Check.run ~rules:Check.absint_family ctx);
  check Alcotest.bool "ABS family leaves the RTL unparsed" false (Lazy.is_val ctx.Check.rtl);
  ignore (Check.run ctx);
  check Alcotest.bool "the full battery parses it" true (Lazy.is_val ctx.Check.rtl)

(* --- controller corruptions ---------------------------------------- *)

let catches_missing_control_step () =
  let _, _, ctx = flow_ctx ~style:Flow.Traditional "ex1" in
  let c =
    match ctx.Check.control with
    | Some c -> c
    | None -> Alcotest.fail "ex1 control table should build"
  in
  let steps = List.filter (fun (s : Control.step) -> s.Control.index <> 1) c.Control.steps in
  let rep = Check.run { ctx with Check.control = Some { Control.steps } } in
  check rules_list "only CTL001 fires" [ "CTL001" ] (error_rules rep)

let catches_bad_write_select () =
  let _, _, ctx = flow_ctx ~style:Flow.Traditional "ex1" in
  let c = Option.get ctx.Check.control in
  let corrupted = ref false in
  let steps =
    List.map
      (fun (s : Control.step) ->
        match s.Control.writes with
        | w :: rest when not !corrupted ->
            corrupted := true;
            { s with Control.writes = { w with Control.source_index = 99 } :: rest }
        | _ -> s)
      c.Control.steps
  in
  check Alcotest.bool "found a write to corrupt" true !corrupted;
  let rep = Check.run { ctx with Check.control = Some { Control.steps } } in
  check rules_list "only CTL002 fires" [ "CTL002" ] (error_rules rep)

(* --- BIST style corruptions ---------------------------------------- *)

let catches_spurious_cbilbo () =
  let _, _, ctx = flow_ctx ~style:(Flow.Testable Testable_alloc.default_options) "ex1" in
  let sol = Option.get ctx.Check.bist in
  let justified rid =
    List.exists
      (fun (e : Ipath.embedding) -> Ipath.requires_cbilbo e && e.Ipath.sa = rid)
      sol.Allocator.embeddings
  in
  let rid =
    match List.find_opt (fun (rid, _) -> not (justified rid)) sol.Allocator.styles with
    | Some (rid, _) -> rid
    | None -> Alcotest.fail "every ex1 register justifies a CBILBO?"
  in
  let styles =
    List.map
      (fun (r, s) -> if String.equal r rid then (r, Resource.Cbilbo) else (r, s))
      sol.Allocator.styles
  in
  let rep = Check.run { ctx with Check.bist = Some { sol with Allocator.styles } } in
  check Alcotest.bool "BIST004 fires" true (List.mem "BIST004" (error_rules rep))

let catches_unflagged_cbilbo () =
  let _, _, ctx = flow_ctx ~style:(Flow.Testable Testable_alloc.default_options) "ex1" in
  let sol = Option.get ctx.Check.bist in
  let style_of rid = List.assoc_opt rid sol.Allocator.styles in
  (* redirect an embedding's signature register onto one of its own TPGs:
     the register now generates and compacts concurrently, but its
     declared style still claims otherwise *)
  let e =
    match
      List.find_opt
        (fun (e : Ipath.embedding) -> style_of e.Ipath.l_tpg <> Some Resource.Cbilbo)
        sol.Allocator.embeddings
    with
    | Some e -> e
    | None -> Alcotest.fail "no embedding with a non-CBILBO left TPG"
  in
  let embeddings =
    List.map
      (fun (e' : Ipath.embedding) ->
        if e'.Ipath.mid = e.Ipath.mid then { e' with Ipath.sa = e'.Ipath.l_tpg } else e')
      sol.Allocator.embeddings
  in
  let rep = Check.run { ctx with Check.bist = Some { sol with Allocator.embeddings } } in
  check Alcotest.bool "BIST003 fires" true (List.mem "BIST003" (error_rules rep))

(* --- satellite 2: check.rule fault injection degrades per rule ------ *)

let injection_degrades_per_rule () =
  let ctx = broken_coloring_ctx () in
  Fun.protect
    ~finally:(fun () -> Inject.configure [])
    (fun () ->
      Inject.configure ~seed:1 [ ("check.rule", 1.0) ];
      let rep = Check.run ctx in
      check Alcotest.int "every rule crashed" rep.Check.total_rules rep.Check.rules_crashed;
      check Alcotest.int "still counted as run" rep.Check.total_rules rep.Check.rules_run;
      check rules_list "all findings are CHK000" [ "CHK000" ] (error_rules rep);
      check Alcotest.int "one finding per rule" rep.Check.total_rules
        (List.length rep.Check.findings));
  (* with injection off the same context checks normally again *)
  let rep = Check.run ctx in
  check Alcotest.int "no crashes without injection" 0 rep.Check.rules_crashed;
  check rules_list "back to the real finding" [ "ALC001" ] (error_rules rep)

(* --- suppression, budget, reporters -------------------------------- *)

let suppression () =
  let ctx = broken_coloring_ctx () in
  let rep = Check.run ~suppress:[ "ALC001" ] ctx in
  check Alcotest.int "no active errors" 0 (Check.errors rep);
  check Alcotest.int "finding moved to suppressed" 1 (List.length rep.Check.suppressed);
  let j = Check.to_json rep in
  let suppressed_flags =
    match Json.member "findings" j with
    | Some (Json.Arr fs) -> List.filter_map (Json.member "suppressed") fs
    | _ -> []
  in
  check
    Alcotest.(list bool)
    "json carries the suppressed flag" [ true ]
    (List.filter_map Json.to_bool suppressed_flags)

let budget_skips_rules () =
  let ctx = broken_coloring_ctx () in
  let b = Budget.create ~leaf_budget:1 () in
  Budget.leaf b;
  let rep = Check.run ~budget:b ctx in
  check Alcotest.int "nothing ran" 0 rep.Check.rules_run;
  check Alcotest.int "everything skipped" rep.Check.total_rules rep.Check.rules_skipped;
  check Alcotest.bool "report degraded" true rep.Check.degraded;
  check Alcotest.int "no findings invented" 0 (List.length rep.Check.findings)

let reporters () =
  let ctx = broken_coloring_ctx () in
  let rep = Check.run ctx in
  let text = Check.to_text rep in
  check Alcotest.bool "text names the rule" true (contains text "[ALC001]");
  (match Json.parse (Json.to_string (Check.to_json rep)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("report JSON does not round-trip: " ^ e));
  check Alcotest.int "one error diagnostic" 1 (List.length (Check.diagnostics rep))

let rule_table_sane () =
  check Alcotest.bool "ALC001 known" true (Check.known_rule "ALC001");
  check Alcotest.bool "CHK000 known" true (Check.known_rule "CHK000");
  check Alcotest.bool "garbage unknown" false (Check.known_rule "NOPE42");
  let ids = List.map (fun (id, _, _) -> id) Check.rule_info in
  check Alcotest.int "ids unique" (List.length ids) (List.length (List.sort_uniq compare ids))

(* --- ALC005's colouring order --------------------------------------- *)

(* The order ctx_of_flow records is the one the allocator coloured in,
   derived without colouring: for every design, and for [order] under
   every option combination. *)
let ctx_order_is_allocation_order () =
  List.iter
    (fun spec ->
      let inst = Test_regalloc_trace.load spec in
      let dfg = inst.B.dfg and massign = inst.B.massign and policy = inst.B.policy in
      let traced options =
        List.map
          (fun (s : Testable_alloc.trace_step) -> s.Testable_alloc.vertex)
          (snd (Testable_alloc.allocate ~options dfg massign ~policy))
      in
      List.iter
        (fun options ->
          check rules_list (spec ^ " order") (traced options)
            (Testable_alloc.order ~options dfg massign ~policy))
        Test_regalloc_trace.all_options;
      let style = Flow.Testable Testable_alloc.default_options in
      let ctx =
        Check.ctx_of_flow ~design:spec ~width:8 dfg massign ~policy
          (Flow.run ~style dfg massign ~policy)
      in
      check Alcotest.(option (list string)) (spec ^ " ctx order")
        (Some (traced Testable_alloc.default_options)) ctx.Check.order)
    Test_regalloc_trace.(tags @ data)

(* Colouring a non-simplicial vertex last puts it first in the reversed
   order, where its neighbours do not form a clique. *)
let catches_non_peo_order () =
  let _, _, ctx = flow_ctx ~style:(Flow.Testable Testable_alloc.default_options) "Paulin" in
  let g, idx = Lifetime.conflict_graph ~policy:ctx.Check.policy ctx.Check.dfg in
  let last =
    match List.find_opt (fun i -> not (Ugraph.is_simplicial g i)) (Ugraph.vertices g) with
    | Some i -> idx.Lifetime.of_index i
    | None -> Alcotest.fail "Paulin's conflict graph has no non-simplicial vertex"
  in
  let order = List.filter (( <> ) last) (Option.get ctx.Check.order) @ [ last ] in
  let rep = Check.run { ctx with order = Some order } in
  check rules_list "ALC005 alone" [ "ALC005" ] (error_rules rep)

(* check and analyze count the allocator's work once, as run does. *)
let stats_count_one_allocation () =
  let regalloc_rows cmd =
    Test_equiv.synth_stderr (cmd @ [ "../data/fir32.dfg"; "--flow"; "testable"; "--stats" ])
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.starts_with ~prefix:"| regalloc." l)
  in
  let run = regalloc_rows [ "run"; "--no-cache" ] in
  check Alcotest.bool "run reports regalloc counters" true
    (List.mem "| regalloc.steps            |   127 |" run);
  check rules_list "check" run (regalloc_rows [ "check" ]);
  check rules_list "analyze" run (regalloc_rows [ "analyze" ])

(* One run derives each fact once: the ABS rules share one solve of each
   kind, and analyze's entry point reads the same two. *)
let facts_derived_once () =
  let inst = Test_regalloc_trace.load "data/fir32.dfg" in
  let dfg = inst.B.dfg and massign = inst.B.massign and policy = inst.B.policy in
  let solves f = Telemetry.counter (snd (Telemetry.collect f)) "absint.solves" in
  List.iter
    (fun style ->
      let ctx =
        Check.ctx_of_flow ~design:"fir32" ~width:8 dfg massign ~policy
          (Flow.run ~style dfg massign ~policy)
      in
      check Alcotest.int "check" 2 (solves (fun () -> ignore (Check.run ctx)));
      check Alcotest.int "analyze" 2
        (solves (fun () -> ignore (Check.analyze ctx))))
    [ Flow.Testable Testable_alloc.default_options; Flow.Traditional ]

(* analyze solves before it runs a rule: a solve that raises leaves
   every rule unrun. *)
let analyze_solves_first () =
  let _, _, ctx = flow_ctx ~style:Flow.Traditional "ex1" in
  let raised, stats =
    Fun.protect
      ~finally:(fun () -> Inject.configure [])
      (fun () ->
        Inject.configure ~seed:1 [ ("absint.fixpoint", 1.0) ];
        Telemetry.collect (fun () ->
            match Check.analyze ctx with
            | _ -> false
            | exception Inject.Injected _ -> true))
  in
  check Alcotest.bool "the solve fault escapes" true raised;
  check Alcotest.int "no rule ran" 0 (Telemetry.counter stats "check.rules_run")

(* A report command reports an unloadable spec (exit 4) before a bad
   flag (exit 1). *)
let spec_errors_precede_flag_errors () =
  List.iter
    (fun cmd ->
      check Alcotest.int cmd 4
        (Test_equiv.run_synth [ cmd; "nosuch"; "--format"; "bogus" ]))
    [ "check"; "analyze"; "verify" ]

(* Lemma 1/2 predicts from plain I-paths, so BIST005 compares it with
   the plain embeddings under transparency too: every design that checks
   clean without transparency has no BIST005 finding with it. *)
let bist005_ignores_transparency () =
  List.iter
    (fun style ->
      List.iter
        (fun tag ->
          let inst = instance tag in
          let r =
            Flow.run ~transparency:true ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy
          in
          let ctx =
            Check.ctx_of_flow ~transparency:true ~design:tag ~width:8 inst.B.dfg inst.B.massign
              ~policy:inst.B.policy r
          in
          let bist005 =
            List.filter (fun (f : Check.finding) -> f.Check.rule = "BIST005")
              (Check.run ctx).Check.findings
          in
          check Alcotest.(list string) (tag ^ " BIST005 under transparency") []
            (List.map (fun (f : Check.finding) -> f.Check.subject) bist005))
        B.all_tags)
    [ Flow.Testable Testable_alloc.default_options; Flow.Traditional ]

(* BIST003 and BIST005 read a unit's embeddings through memoized facts,
   which must say what Ipath says, with and without transparency;
   BIST005's plain fact is the same one when transparency is off. *)
let unit_embeddings_fact () =
  List.iter
    (fun style ->
      List.iter
        (fun tag ->
          let _, _, ctx = flow_ctx ~style tag in
          List.iter
            (fun transparency ->
              let ctx = { ctx with Check.transparency } in
              let facts = Rule.derive ctx in
              List.iter
                (fun (u : Massign.hw) ->
                  let mid = u.Massign.mid in
                  let fact = facts.Rule.unit_embeddings mid in
                  check Alcotest.bool (tag ^ " " ^ mid ^ " embeddable")
                    (Ipath.embeddings ~transparency ctx.Check.datapath mid <> [])
                    fact.Rule.embeddable;
                  check Alcotest.bool (tag ^ " " ^ mid ^ " CBILBO unavoidable")
                    (Ipath.cbilbo_unavoidable ~transparency ctx.Check.datapath mid)
                    fact.Rule.cbilbo_unavoidable;
                  check Alcotest.bool "memoized" true (facts.Rule.unit_embeddings mid == fact);
                  let plain = facts.Rule.plain_embeddings mid in
                  check Alcotest.bool (tag ^ " " ^ mid ^ " plain embeddable")
                    (Ipath.embeddings ~transparency:false ctx.Check.datapath mid <> [])
                    plain.Rule.embeddable;
                  check Alcotest.bool (tag ^ " " ^ mid ^ " plain CBILBO unavoidable")
                    (Ipath.cbilbo_unavoidable ~transparency:false ctx.Check.datapath mid)
                    plain.Rule.cbilbo_unavoidable;
                  if not transparency then
                    check Alcotest.bool "one enumeration without transparency" true (plain == fact))
                ctx.Check.massign.Massign.units)
            [ false; true ])
        [ "ex1"; "Tseng2"; "Paulin"; "dct4" ])
    [ Flow.Testable Testable_alloc.default_options; Flow.Traditional ]

let suite =
  [ case "clean benchmarks check clean (both flows)" clean_benchmarks;
    case "broken coloring caught by ALC001 alone" catches_broken_coloring;
    case "severed interconnect caught by DP003 alone" catches_severed_interconnect;
    case "forced combinational loop caught by RTL001 alone" catches_combinational_loop;
    case "undriven wire caught by RTL002" catches_undriven_wire;
    case "floating wire caught by RTL003 alone" catches_floating_wire;
    case "second assign caught by RTL004" catches_multi_driven_wire;
    case "narrowed wire caught by DP002 alone" catches_narrow_wire;
    case "swapped operands caught by RTL005 and EQ002" catches_swapped_operands;
    case "parse-back stays lazy for the ABS family" parse_back_stays_lazy;
    case "missing control step caught by CTL001 alone" catches_missing_control_step;
    case "bad write select caught by CTL002 alone" catches_bad_write_select;
    case "spurious CBILBO flag caught by BIST004" catches_spurious_cbilbo;
    case "unflagged CBILBO duty caught by BIST003" catches_unflagged_cbilbo;
    case "check.rule injection degrades to CHK000 per rule" injection_degrades_per_rule;
    case "suppression moves findings out of the gate" suppression;
    case "tripped budget skips rules, marks degraded" budget_skips_rules;
    case "text and json reporters" reporters;
    case "rule table is consistent" rule_table_sane;
    case "ctx order is the allocator's colouring order" ctx_order_is_allocation_order;
    case "non-PEO colouring order caught by ALC005 alone" catches_non_peo_order;
    case "check and analyze --stats count one allocation" stats_count_one_allocation;
    case "one run derives each fact once" facts_derived_once;
    case "analyze solves before any rule runs" analyze_solves_first;
    case "spec errors precede flag errors" spec_errors_precede_flag_errors;
    case "unit embedding fact matches Ipath" unit_embeddings_fact;
    case "BIST005 compares plain I-paths under transparency" bist005_ignores_transparency;
  ]
