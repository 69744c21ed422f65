module Dfg = Bistpath_dfg.Dfg
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Budget = Bistpath_resilience.Budget
module Diagnostic = Bistpath_resilience.Diagnostic
module Inject = Bistpath_resilience.Inject
module Telemetry = Bistpath_telemetry.Telemetry
module Json = Bistpath_util.Json

type severity = Diagnostic.severity

type finding = Rule.finding = {
  rule : string;
  severity : severity;
  subject : string;
  detail : string;
}

type ctx = Rule.ctx = {
  design : string;
  width : int;
  transparency : bool;
  vectors : int;
  assumes : (string * (int * int)) list;
  dfg : Dfg.t;
  massign : Massign.t;
  policy : Policy.t;
  regalloc : Regalloc.t;
  datapath : Datapath.t;
  bist : Bistpath_bist.Allocator.solution option;
  sessions : Bistpath_bist.Session.t option;
  order : string list option;
  control : Control.t option;
  rtl : Bistpath_rtl.Equiv.parsed option Lazy.t;
}

let all_rules =
  Alloc_rules.rules @ Datapath_rules.rules @ Rtl_rules.rules @ Equiv_rules.rules
  @ Absint_rules.rules

let absint_family = Absint_rules.rules

let rule_info =
  List.map (fun (r : Rule.t) -> (r.Rule.id, r.Rule.severity, r.Rule.title)) all_rules
  @ [ ("CHK000", Diagnostic.Error, "rule crashed while evaluating") ]

let known_rule id = List.exists (fun (known, _, _) -> known = id) rule_info

let make_ctx ?bist ?sessions ?order ?(transparency = false) ?(vectors = 0) ?(assumes = [])
    ~design ~width dfg massign ~policy regalloc datapath =
  let control = try Some (Control.build datapath) with _ -> None in
  let rtl =
    lazy
      (Option.map Bistpath_rtl.Equiv.parse_back
         (Equiv_rules.emitted ~width ?bist ?sessions datapath))
  in
  { design; width; transparency; vectors; assumes; dfg; massign; policy; regalloc; datapath;
    bist; sessions; order; control; rtl }

let ctx_of_flow ?(vectors = 0) ?(transparency = false) ?(assumes = []) ~design ~width dfg
    massign ~policy (r : Flow.result) =
  let order =
    match r.Flow.style with
    | Flow.Traditional -> None
    | Flow.Testable options -> Some (Testable_alloc.order ~options dfg massign ~policy)
  in
  make_ctx ~bist:r.Flow.bist ~sessions:r.Flow.sessions ?order ~transparency ~vectors ~assumes
    ~design ~width dfg massign ~policy r.Flow.regalloc r.Flow.datapath

type report = {
  design : string;
  total_rules : int;
  rules_run : int;
  rules_crashed : int;
  rules_skipped : int;
  findings : finding list;
  suppressed : finding list;
  degraded : bool;
}

type outcome = Evaluated of finding list | Crashed of string

(* The rules over [ctx], reading [facts] (derived from [ctx]). *)
let run_facts ~suppress ~budget ~rules ctx facts =
  let eval (r : Rule.t) =
    (* Per-rule latency distribution (crashed rules included: the time
       until the raise is still time the checker spent in the rule). *)
    let t0 = if Telemetry.enabled () then Telemetry.now () else 0L in
    let result =
      match
        Inject.fire "check.rule";
        r.Rule.run ctx facts
      with
      | fs -> Evaluated fs
      | exception e -> Crashed (Printexc.to_string e)
    in
    if Telemetry.enabled () then
      Telemetry.observe "check.rule_ns" (Int64.to_int (Int64.sub (Telemetry.now ()) t0));
    result
  in
  let results =
    List.map (fun r -> if Budget.should_stop budget then None else Some (eval r)) rules
  in
  let findings, run_count, crashed, skipped =
    List.fold_left2
      (fun (fs, run_count, crashed, skipped) (r : Rule.t) result ->
        match result with
        | None -> (fs, run_count, crashed, skipped + 1)
        | Some (Evaluated found) -> (fs @ found, run_count + 1, crashed, skipped)
        | Some (Crashed msg) ->
            ( fs
              @ [ Rule.v "CHK000" Diagnostic.Error r.Rule.id "rule crashed: %s" msg ],
              run_count + 1,
              crashed + 1,
              skipped ))
      ([], 0, 0, 0) rules results
  in
  let active, suppressed = List.partition (fun f -> not (List.mem f.rule suppress)) findings in
  Telemetry.incr ~by:run_count "check.rules_run";
  Telemetry.incr ~by:crashed "check.rules_crashed";
  Telemetry.incr ~by:skipped "check.rules_skipped";
  Telemetry.incr ~by:(List.length active) "check.findings";
  Telemetry.incr ~by:(List.length suppressed) "check.suppressed";
  { design = ctx.design;
    total_rules = List.length rules;
    rules_run = run_count;
    rules_crashed = crashed;
    rules_skipped = skipped;
    findings = active;
    suppressed;
    degraded = skipped > 0;
  }

let run ?(suppress = []) ?(budget = Budget.unlimited) ?(rules = all_rules) ctx =
  run_facts ~suppress ~budget ~rules ctx (Rule.derive ctx)

let analyze ?(budget = Budget.unlimited) ctx =
  let facts = Rule.derive ctx in
  let ranges = Lazy.force facts.Rule.ranges in
  let control_ranges = Lazy.force facts.Rule.control_ranges in
  (run_facts ~suppress:[] ~budget ~rules:absint_family ctx facts, ranges, control_ranges)

let count sev fs = List.length (List.filter (fun f -> f.severity = sev) fs)
let errors r = count Diagnostic.Error r.findings
let warnings r = count Diagnostic.Warning r.findings

let finding_line f =
  Printf.sprintf "  [%s] %s %s: %s" f.rule (Diagnostic.severity_label f.severity) f.subject f.detail

let to_text r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "check %s: %d/%d rules, %d finding(s) (%d error(s), %d warning(s))"
       r.design r.rules_run r.total_rules (List.length r.findings) (errors r) (warnings r));
  if r.suppressed <> [] then
    Buffer.add_string buf (Printf.sprintf ", %d suppressed" (List.length r.suppressed));
  if r.rules_crashed > 0 then
    Buffer.add_string buf (Printf.sprintf ", %d rule(s) crashed" r.rules_crashed);
  if r.rules_skipped > 0 then
    Buffer.add_string buf (Printf.sprintf ", %d rule(s) budget-skipped" r.rules_skipped);
  Buffer.add_char buf '\n';
  List.iter (fun f -> Buffer.add_string buf (finding_line f ^ "\n")) r.findings;
  if r.suppressed <> [] then begin
    Buffer.add_string buf "suppressed:\n";
    List.iter (fun f -> Buffer.add_string buf (finding_line f ^ "\n")) r.suppressed
  end;
  Buffer.contents buf

let finding_json suppressed f =
  Json.Obj
    [ ("rule", Json.Str f.rule);
      ("severity", Json.Str (Diagnostic.severity_label f.severity));
      ("subject", Json.Str f.subject);
      ("detail", Json.Str f.detail);
      ("suppressed", Json.Bool suppressed);
    ]

let to_json r =
  Json.Obj
    [ ("design", Json.Str r.design);
      ("rules", Json.Num (float_of_int r.total_rules));
      ("run", Json.Num (float_of_int r.rules_run));
      ("crashed", Json.Num (float_of_int r.rules_crashed));
      ("skipped", Json.Num (float_of_int r.rules_skipped));
      ("degraded", Json.Bool r.degraded);
      ("errors", Json.Num (float_of_int (errors r)));
      ("warnings", Json.Num (float_of_int (warnings r)));
      ( "findings",
        Json.Arr
          (List.map (finding_json false) r.findings
          @ List.map (finding_json true) r.suppressed) );
    ]

(* SARIF 2.1.0 — the minimal schema GitHub code scanning ingests: one
   run, the full rule catalogue in the driver, one result per finding
   (suppressed findings are omitted; SARIF suppression objects are a
   per-result attribute most consumers ignore). *)
let to_sarif r =
  let rule_json (id, severity, title) =
    Json.Obj
      [ ("id", Json.Str id);
        ("shortDescription", Json.Obj [ ("text", Json.Str title) ]);
        ( "defaultConfiguration",
          Json.Obj [ ("level", Json.Str (Diagnostic.severity_label severity)) ] );
      ]
  in
  let result_json f =
    Json.Obj
      [ ("ruleId", Json.Str f.rule);
        ("level", Json.Str (Diagnostic.severity_label f.severity));
        ( "message",
          Json.Obj [ ("text", Json.Str (Printf.sprintf "%s: %s" f.subject f.detail)) ] );
        ( "locations",
          Json.Arr
            [ Json.Obj
                [ ( "physicalLocation",
                    Json.Obj
                      [ ( "artifactLocation",
                          Json.Obj [ ("uri", Json.Str r.design) ] )
                      ] )
                ]
            ] );
      ]
  in
  Json.Obj
    [ ("$schema", Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.Str "2.1.0");
      ( "runs",
        Json.Arr
          [ Json.Obj
              [ ( "tool",
                  Json.Obj
                    [ ( "driver",
                        Json.Obj
                          [ ("name", Json.Str "bistpath-synth");
                            ("rules", Json.Arr (List.map rule_json rule_info));
                          ] )
                    ] );
                ("results", Json.Arr (List.map result_json r.findings));
              ]
          ] );
    ]

let diagnostics r =
  List.map
    (fun f ->
      let msg = Printf.sprintf "[%s] %s: %s" f.rule f.subject f.detail in
      match f.severity with
      | Diagnostic.Error -> Diagnostic.error msg
      | Diagnostic.Warning -> Diagnostic.warning msg
      | Diagnostic.Note -> Diagnostic.note msg)
    r.findings
