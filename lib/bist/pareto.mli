(** Area / test-time trade-off exploration.

    Minimal modification area is the paper's objective, but every extra
    test session multiplies test time (each session runs its own pattern
    budget). Different embedding choices trade the two: sharing one SA
    register across units saves gates yet serializes their sessions.
    This module enumerates embedding combinations within an area slack
    of the minimum and reports the Pareto front over
    (modification gates, number of sessions). *)

type point = { delta_gates : int; sessions : int }

val explore :
  ?width:int ->
  ?transparency:bool ->
  ?budget:Bistpath_resilience.Budget.t ->
  ?minimum:Allocator.solution ->
  Bistpath_datapath.Datapath.t ->
  point list
(** Points sorted by [delta_gates], mutually non-dominated (no point is
    at least as good on both axes as another). [minimum] is the
    minimum-area solution of [dp] under the same [width] and
    [transparency] with the default I/O penalty, as {!Allocator.solve}
    returns it: a caller that ran the flow passes the flow's own
    solution. Without it, [explore] solves it first, under [budget].
    A fixed slack
    ([slack_percent], 50) bounds the search to cost <=
    minimum * (100+slack)/100, and a fixed cap ([leaf_cap], 20,000)
    bounds the enumeration. The cap is silent: a front cut by it is
    returned as if complete and does not trip [budget]. The minimum-
    area solution's cost is always represented.

    One depth-first {!Allocator.walk} visits the product of every
    testable unit's embeddings: units in module-assignment order, the
    first outermost, each unit's embeddings in I-path order. Each leaf
    (combination) counts against the cap and the budget, and one reached
    before either stops the walk probes the injection site. Below a
    partial whose cost already exceeds the slack bound the walk is
    count-only: its leaves are counted exactly as above but none is
    costed or scheduled (a later embedding never lowers a cost). An
    in-bound leaf gets its session count from the int first-fit kernel
    that {!Session.schedule} uses, over its units in unit id order, and
    only its (gates, sessions) pair is kept, in a set; no per-leaf
    record is built. The walk stops descending once the cap is passed
    or the budget has tripped; the leaves under a node already being
    expanded are still counted. The pairs {!front} sees are the
    minimum's and the set's. No point carries a solution: test/oracles.ml's
    collect-then-cost sweep builds one per point and finds the same
    pairs. The whole call runs in a [pareto]
    telemetry span and adds [pareto.leaves] (leaves walked),
    [pareto.in_bound] (leaves reached within the bound before the cap
    or the budget stopped the walk) and, when the cap cut the walk,
    [pareto.capped] (1).

    [budget] (default {!Bistpath_resilience.Budget.unlimited}) makes the
    exploration anytime: the walk (one
    {!Bistpath_resilience.Budget.leaf} per leaf), the minimum's session
    schedule and, without [minimum], the minimum-area search observe
    it. If it has tripped by the end of the
    walk, no leaf counts: the front is the minimum alone, with the
    degenerate one-unit-per-session count of a cancelled
    {!Session.schedule}. So a leaf-budget truncation is deterministic,
    and under a deadline the front is still non-empty.
    {!Bistpath_resilience.Budget.stop_reason} says whether the budget
    cut it.

    Fault injection: every leaf reached before the cap or the budget
    stops the walk probes the [pareto.leaf] site
    ({!Bistpath_resilience.Inject}), counted-only ones included. *)

val front : (int * int) list -> (int * int) list
(** [front pairs] keeps the [(gates, sessions)] pairs that no other
    pair dominates (no other has at most as many gates and sessions and
    fewer of one), each once, sorted. One sort and one sweep find the
    survivors: a pair survives when it has its gate count's fewest
    sessions and fewer sessions than every pair with fewer gates. *)

val pp : Format.formatter -> point list -> unit
