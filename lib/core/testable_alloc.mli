(** The paper's testable register allocation (Section III.A-B).

    A perfect vertex elimination scheme is selected with sharing-degree /
    max-clique-size preferences, then vertices are colored in reverse
    PVES order choosing, among non-conflicting registers, the one whose
    sharing degree grows the most (Delta-SD), corrected by the Case 1 /
    Case 2 preferences (keep output variables of a module together; route
    input variables to registers that already feed the module) and by the
    Lemma-2 CBILBO-avoidance check. A new register is opened only when
    every existing one conflicts. *)

type options = {
  sd_ordering : bool;  (** SD/MCS-driven PVES; off = arbitrary MCS order *)
  case_preferences : bool;  (** Section III.A Case 1 and Case 2 *)
  cbilbo_avoidance : bool;  (** Section III.B Lemma-2 filter *)
}

val default_options : options
(** All three on — the full algorithm. *)

type trace_step = {
  vertex : string;
  chosen : string;  (** register id *)
  fresh : bool;  (** a new register was opened *)
  reason : string;  (** "delta-sd", "case-preference", "conflict-all" *)
}

val order :
  ?options:options ->
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  string list
(** The variables in the order {!allocate} colours them: the reverse of
    the selected PVES. Equal to the [vertex] fields of {!allocate}'s
    trace, without colouring anything. *)

val allocate :
  ?options:options ->
  ?sharing:Sharing.ctx ->
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  Bistpath_datapath.Regalloc.t * trace_step list
(** The assignment plus a decision trace (used to regenerate the paper's
    Section III walkthrough). Registers are named in creation order
    R1..Rk. Deterministic. [sharing] is the design's indexed view when
    the caller already built it ({!Sharing.make} of the same DFG and
    module assignment).

    Each register keeps its unit masks and its Lemma-2 counters
    ({!Cbilbo_rules.t}) up to date, so a step costs one Lemma-2 baseline
    plus, per candidate register, a re-judgement of the modules the
    variable touches; sharing degrees and affinities are popcounts. *)
