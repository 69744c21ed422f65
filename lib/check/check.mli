(** Independent static verifier for synthesized artifacts.

    Re-derives the paper's structural invariants from the artifacts
    alone — scheduled DFG, register assignment, data path, BIST
    allocation, control table, the emitted RTL parsed back — and reports every
    violation as a typed finding. The checker shares no code with the
    allocator paths it audits: lifetimes, conflicts, CBILBO conditions
    and connectivity are all recomputed here, so an allocator bug cannot
    vouch for itself.

    {1 Rule table}

    Severity [error] findings gate ([synth check] exits 2); [warning]
    findings are reported but do not gate. Any rule can be suppressed by
    id ([~suppress] / [--suppress]).

    {v
    Allocation pass
      ALC001  error    conflicting variables share a register
      ALC002  error    assignment is not a partition of the allocatable variables
      ALC003  error    recomputed conflict graph is not chordal
      ALC004  warning  register count exceeds the recomputed minimum
      ALC005  error    coloring order is not a reverse PVES (needs a recorded order)
      BIST001 error    embedding claims an I-path / variable-set sharing that does not exist
      BIST002 error    register style differs from its accumulated test duties
      BIST003 error    CBILBO condition triggered but register not flagged
      BIST004 error    register flagged CBILBO without a generate-and-compact duty
      BIST005 warning  Lemma 1/2 prediction disagrees with post-interconnect ground truth
      BIST006 error    test session schedules conflicting duties together

    Data-path pass
      DP001   error    register must latch two values in one control step
      DP002   error    port width mismatch
      DP003   error    scheduled transfer has no physical path (interconnect completeness)
      DP004   warning  dead register (never read)
      DP005   error    route disagrees with the register assignment
      DP006   error    operands of a non-commutative operation are swapped
      EQ001   error    data path diverges from DFG semantics on random vectors

    RTL pass
      RTL001  error    combinational loop (SCC over the parsed-back netlist)
      RTL002  error    undriven net with readers
      RTL003  warning  floating net (driven, never read)
      RTL004  error    multi-driven net
      CTL001  error    control FSM has missing or phantom states
      CTL002  error    control select or enable index out of range
      RTL005  error    emitted RTL does not parse back structurally equivalent
      EQ002   error    parsed-back RTL diverges from the interpreter on random vectors

    Abstract interpretation (proof-carrying; findings embed the
    interval witness that justifies them)
      ABS001  error    arithmetic provably wraps mod 2^width (warning when
                       asserted --assume ranges still admit a wrap)
      ABS002  error    reachable division by zero (warning under --assume)
      ABS003  warning  dead multiplexer leg — never selected by any
                       reachable control step
      ABS004  error    unreachable controller state (reachability superset
                       of CTL001's syntactic index check)
      ABS005  warning  provably constant net
      ABS006  error    register read before its first write

    Framework
      CHK000  error    a rule crashed (also raised by the check.rule injection site)
    v} *)

type severity = Bistpath_resilience.Diagnostic.severity

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
  dfg : Bistpath_dfg.Dfg.t;
  massign : Bistpath_dfg.Massign.t;
  policy : Bistpath_dfg.Policy.t;
  regalloc : Bistpath_datapath.Regalloc.t;
  datapath : Bistpath_datapath.Datapath.t;
  bist : Bistpath_bist.Allocator.solution option;
  sessions : Bistpath_bist.Session.t option;
  order : string list option;
  control : Bistpath_datapath.Control.t option;
  rtl : Bistpath_rtl.Equiv.parsed option Lazy.t;
}

val rule_info : (string * severity * string) list
(** Every rule as (id, worst severity, title), registration order (the
    order findings are reported in), CHK000 included — the catalogue
    behind [--list-rules] and the SARIF driver block. *)

val known_rule : string -> bool
(** Is this a valid id for [~suppress]? *)

val absint_family : Rule.t list
(** Just the ABS001..ABS006 rules — the subset [synth analyze] runs. *)


val make_ctx :
  ?bist:Bistpath_bist.Allocator.solution ->
  ?sessions:Bistpath_bist.Session.t ->
  ?order:string list ->
  ?transparency:bool ->
  ?vectors:int ->
  ?assumes:(string * (int * int)) list ->
  design:string ->
  width:int ->
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  Bistpath_datapath.Regalloc.t ->
  Bistpath_datapath.Datapath.t ->
  ctx
(** Bundle artifacts for checking. The control table is derived here
    into [control] (a datapath [Control.build] rejects yields [None]),
    and the RTL is emitted ([bist]/[sessions] included) and parsed back
    lazily, on the first rule that audits it; tests corrupt individual fields
    afterwards with record update. [vectors] defaults
    to 0 (EQ001 off); [transparency] must match the flow that produced
    the BIST solution. *)

val ctx_of_flow :
  ?vectors:int ->
  ?transparency:bool ->
  ?assumes:(string * (int * int)) list ->
  design:string ->
  width:int ->
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  Bistpath_core.Flow.result ->
  ctx
(** Bundle a {!Bistpath_core.Flow.run} result. For the testable style
    the colouring order is re-derived ({!Bistpath_core.Testable_alloc.order},
    no colouring) so ALC005 (reverse-PVES) can run. *)

type report = {
  design : string;
  total_rules : int;
  rules_run : int;  (** evaluated (including crashed ones) *)
  rules_crashed : int;
  rules_skipped : int;  (** budget-skipped, never evaluated *)
  findings : finding list;  (** active findings, CHK000 included *)
  suppressed : finding list;
  degraded : bool;  (** [rules_skipped > 0] *)
}

val run :
  ?suppress:string list ->
  ?budget:Bistpath_resilience.Budget.t ->
  ?rules:Rule.t list ->
  ctx ->
  report
(** Evaluate [rules] (default: every rule) in order under the budget,
    which is polled before each rule (a tripped budget skips the
    remaining rules and marks the report degraded). A rule that raises
    — including an injected [check.rule] fault — degrades to a CHK000
    finding naming the rule; the other rules still run. The rules share
    one {!Rule.facts} set derived from [ctx] for this run; a fact's cost
    lands in [check.rule_ns] of the first rule that reads it.
    Telemetry: each run of consecutive rules of one family in one span
    named after it ([check.alloc], [check.datapath], [check.rtl],
    [check.equiv], [check.absint]); the counters [check.rules_run],
    [check.rules_crashed], [check.rules_skipped], [check.findings],
    [check.suppressed]. *)

val analyze :
  ?budget:Bistpath_resilience.Budget.t ->
  ctx ->
  report * Bistpath_absint.Absint.dfg_result * Bistpath_absint.Absint.control_result option
(** {!run} over {!absint_family}, with the [ranges] and [control_ranges]
    facts its rules read (see {!Rule.facts}). Both are solved before
    any rule runs: a solve that raises (an injected [absint.fixpoint]
    fault) raises here, and no rule runs. *)

val errors : report -> int
(** Active findings with severity [Error]. *)

val to_text : report -> string
(** Human-readable report: a summary line, one indented line per
    finding, suppressed findings listed separately. *)

val to_json : report -> Bistpath_util.Json.t
(** Machine-readable report (suppressed findings carried inline with
    ["suppressed": true]). *)

val to_sarif : report -> Bistpath_util.Json.t
(** SARIF 2.1.0 document (the minimal shape GitHub code scanning
    ingests): the full rule catalogue in the driver block, one result
    per active finding, located at the design name. Suppressed findings
    are omitted. *)

val diagnostics : report -> Bistpath_resilience.Diagnostic.t list
(** Active findings as diagnostics ("[ALC001] subject: detail"). *)
