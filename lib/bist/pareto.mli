(** Area / test-time trade-off exploration.

    Minimal modification area is the paper's objective, but every extra
    test session multiplies test time (each session runs its own pattern
    budget). Different embedding choices trade the two: sharing one SA
    register across units saves gates yet serializes their sessions.
    This module enumerates embedding combinations within an area slack
    of the minimum and reports the Pareto front over
    (modification gates, number of sessions). *)

type point = {
  delta_gates : int;
  sessions : int;
  solution : Allocator.solution;
}

val explore :
  ?model:Bistpath_datapath.Area.model ->
  ?width:int ->
  ?transparency:bool ->
  ?slack_percent:int ->
  ?leaf_budget:int ->
  ?budget:Bistpath_resilience.Budget.t ->
  Bistpath_datapath.Datapath.t ->
  point list
(** Points sorted by [delta_gates], mutually non-dominated (no point is
    at least as good on both axes as another). [slack_percent] (default
    50) bounds the search to cost <= minimum * (100+slack)/100;
    [leaf_budget] (default 20_000) caps the enumeration. The minimum-
    area solution's cost is always represented. Embedding leaves are
    enumerated first, then costed (solution build + session scheduling)
    in enumeration order.

    [budget] (default {!Bistpath_resilience.Budget.unlimited}) makes the
    exploration anytime: the minimum-area search, the enumeration (one
    {!Bistpath_resilience.Budget.leaf} per combination, counted before
    any leaf is costed, so a leaf-budget truncation point is
    deterministic), leaf costing ({!Bistpath_resilience.Budget.map}; a
    deadline abandons the remaining leaves) and session scheduling all
    observe it. The
    front of whatever was evaluated is still returned, with the
    always-included minimum point guaranteeing it is non-empty.

    Fault injection: every costed leaf probes the [pareto.leaf] site
    ({!Bistpath_resilience.Inject}). *)

val explore_outcome :
  ?model:Bistpath_datapath.Area.model ->
  ?width:int ->
  ?transparency:bool ->
  ?slack_percent:int ->
  ?leaf_budget:int ->
  ?budget:Bistpath_resilience.Budget.t ->
  Bistpath_datapath.Datapath.t ->
  point list Bistpath_resilience.Outcome.t
(** [explore] with the truncation cause made explicit: [Degraded] with
    the budget's stop reason if its token tripped, [Degraded] with
    [Leaf_budget] if the local enumeration cap was exceeded, [Complete]
    otherwise. *)

val pp : Format.formatter -> point list -> unit
