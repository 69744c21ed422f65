(** Minimal-area BIST resource allocation — our reimplementation of the
    role the BITS system plays in the paper's evaluation (DESIGN.md §3).

    Given a data path, pick one BIST embedding per functional unit so that
    the total modification cost (gates added to upgrade registers to
    their accumulated styles) is minimal. Branch-and-bound with a greedy
    warm start and incremental cost maintenance: units in
    fewest-embeddings-first order, branches in cheapest-delta-first
    order, pruning on the running cost. A leaf replaces the best solution
    only if it is strictly cheaper, so the answer is the warm start if
    that is optimal, else the first optimal leaf in depth-first order.

    The search memoizes bounds. A register's style, and so its cost, is
    a function of three tests only (it generates, it compacts, it does
    both for one unit), and a later embedding can only add duties. So two
    entries to one unit's level whose registers agree on those tests,
    for every register an embedding of that unit or a later one touches,
    face the same cost increments. When a level's subtree has been
    searched to the end, the best cost minus the partial cost it was
    entered with is recorded under that key; a later entry with the same
    key is skipped when its partial cost plus that bound reaches the
    best. A skipped subtree holds no leaf strictly cheaper than the best,
    so the answer is the one an unmemoized search gives, with fewer
    nodes (fir8 testable: 9,960 instead of 166,440). Keys pack 3 bits
    per register into one int, so a level whose remaining units touch
    more than 20 registers, and the first level, are not memoized.

    The paper-scale designs are solved exactly; a fixed cap of 200,000
    search nodes ([node_cap]) bounds the search on large generated
    designs (fir16 testable still reaches it). Hitting the cap is
    reported only through [exact = false]: it does not trip the caller's
    {!Bistpath_resilience.Budget}, whose {!Bistpath_resilience.Budget.stop_reason}
    stays [None]. A capped search returns the best leaf found so far,
    never worse than the unmemoized search's at the same cap, since it
    stops further along the same order.

    The engine is indexed and reads one factored table
    ({!Bistpath_ipath.Ipath.table}): each unit's left, right and SA
    sources as register numbers in I-path order, which stand for their
    product. Per register the engine keeps generate, compact and
    same-unit counts and the style they imply in int arrays, and a
    per-(register, style) gate table, I/O penalty included, plus a
    per-style forbidden flag make each search node a few array
    updates. Every phase runs on it: keying, the greedy warm start, the
    search, the infeasible-core shrink, the final restyle
    ({!solution_of}) and the Pareto sweep's {!walk}. Each unit's options
    are ranked on ints ({!search_order}): their cost against the empty
    state, read from the gate table, then their registers' ranks in
    [String.compare] order, which is [compare] on (cost, embedding). An
    {!Bistpath_ipath.Ipath.embedding} record is built only for the
    chosen options, and the [bist.embedding_candidates] and
    [bist.cbilbos_avoided] counters are counted from the three sets.
    test/oracles.ml keeps the earlier string-keyed engine over
    materialised embedding lists, without the memo, and an exhaustive
    reference as the specification. *)

type solution = {
  embeddings : Bistpath_ipath.Ipath.embedding list;  (** one per testable unit *)
  styles : (string * Resource.style) list;  (** per register, Normal included *)
  untestable : string list;  (** units with no usable embedding *)
  delta_gates : int;  (** total modification cost *)
  exact : bool;  (** search completed within the node cap and the budget *)
}

val solve :
  ?model:Bistpath_datapath.Area.model ->
  ?width:int ->
  ?forbidden:Resource.style list ->
  ?io_penalty_percent:int ->
  ?transparency:bool ->
  ?budget:Bistpath_resilience.Budget.t ->
  Bistpath_datapath.Datapath.t ->
  solution
(** Default model {!Bistpath_datapath.Area.default}, the only one any
    program costs with; [model] stays an option only because
    perfbench's tracer, which replays {!Bistpath_core.Flow.run} call
    for call, passes it. Width 8. Units
    with no operations bound to them are skipped (they exist only on
    paper). [forbidden] styles are rejected outright (used
    by the SYNTEST-like baseline, whose self-testable template never
    mixes generate and compact duties on one register); a unit whose
    every embedding would need a forbidden style is reported untestable.
    [io_penalty_percent] (default 100 = no penalty) scales the
    modification cost of {e dedicated} I/O registers — pad-ring
    registers are costlier to convert than datapath registers; the
    sensitivity study in the bench harness sweeps this. With
    [~transparency:true] (default false) pattern generators may reach a
    port through one transparent unit ({!Bistpath_ipath.Ipath}), which
    can only lower the minimum. Deterministic.

    [budget] (default {!Bistpath_resilience.Budget.unlimited}) makes the
    search anytime: every branch-and-bound node is counted against the
    budget and the search polls its token, so a deadline or external
    cancel truncates it exactly like the node cap — the greedy warm
    start (or best solution found so far) is returned with
    [exact = false], and the budget's stop reason says why. The default
    budget never stops the search, so only the node cap can.

    Fault injection: each complete leaf the search reaches probes the
    [allocator.leaf] site ({!Bistpath_resilience.Inject}); leaves in
    skipped subtrees are not reached. The [bist.embeddings_explored]
    counter gets the number of search nodes once, also when an injected
    fault unwinds the search. *)

val search_order :
  ?width:int ->
  ?io_penalty_percent:int ->
  ?transparency:bool ->
  Bistpath_datapath.Datapath.t ->
  (string * Bistpath_ipath.Ipath.embedding list) list
(** The units {!solve} searches (those with operations and at least one
    embedding), in its order, each with its embeddings in the order the
    search tries them: units with fewest embeddings first,
    module-assignment order on ties; a unit's embeddings by their cost
    against the empty state, then by their registers' ranks in
    [String.compare] order. *)

val solution_of :
  width:int ->
  Bistpath_datapath.Datapath.t ->
  Bistpath_ipath.Ipath.embedding list ->
  solution
(** The solution a chosen embedding list (one per unit) amounts to:
    the embeddings sorted by unit, every register's style and the total
    modification cost under {!Bistpath_datapath.Area.default}, with
    [untestable = []] and [exact = true]. The same costing ends
    {!solve}, whose I/O penalty is the only difference. Partially
    applied to a data path, it numbers the registers once for any
    number of embedding lists. No program calls it: it is the costing
    kernel the test oracles build their solutions with. *)

val sessions : solution -> int array
(** The session of each of the solution's embeddings, in list order:
    first-fit, each unit taking the lowest session that no earlier unit
    it conflicts with holds. This is the session conflict rule's one
    implementation ({!Session} documents the rule), an int kernel over
    register numbers, CBILBO style codes and unit ranks that
    {!Session.schedule} and {!walk}'s {!leaf_sessions} share. A
    register's first entry in [styles] is its style; a register without
    one is not a CBILBO. *)

type leaf
(** The walk's state at one complete choice of embeddings. Valid only
    inside the callback it is passed to. *)

val walk :
  width:int ->
  transparency:bool ->
  Bistpath_datapath.Datapath.t ->
  bound:int ->
  descend:(unit -> bool) ->
  beyond:(unit -> unit) ->
  (leaf -> unit) ->
  unit
(** [walk ~width ~transparency dp ~bound ~descend ~beyond f]
    visits the product of the embeddings of every unit {!solve}
    searches that has any, depth first: units in module-assignment
    order, the first outermost, each unit's embeddings in I-path order
    ({!Bistpath_ipath.Ipath.row}), read straight from the table.
    [descend ()] is asked before the children of every internal node
    (the root included, unless there are no units); [false] skips them.
    Each level applies one embedding to the indexed engine and removes
    it on the way back, so a leaf's cost is its parent's plus a few
    table lookups. Costs are {!solution_of}'s (the default model, no
    forbidden style, no I/O penalty).

    [f] gets every leaf reached whose cost is at most [bound];
    [beyond ()] is called once for every other leaf reached. Once a
    partial's cost exceeds [bound] its subtree is walked count-only: no
    embedding is applied below it, but [descend] is still asked at each
    of its internal nodes and [beyond] called at each of its leaves,
    exactly as the full walk would reach them. This is sound because a
    later embedding only adds duties, so a register's style only moves
    up (none, TPG or SA, then TPG/SA, then CBILBO), and the per-bit
    deltas of {!Bistpath_datapath.Area.default}, the one model, grow
    along that order (3, 4, 5, 7): every leaf below a partial costs at
    least as much as it does. {!solve}'s sibling cut relies on the same
    monotonicity. *)

val leaf_gates : leaf -> int
(** The leaf's modification cost: [(solution_of ...).delta_gates] of
    its embeddings. *)

val leaf_sessions : leaf -> int
(** The number of sessions {!Session.schedule} gives the leaf's
    solution, counted by the {!sessions} kernel over the units in unit
    id order, with no solution built. *)

val style_counts : solution -> (Resource.style * int) list
(** Histogram of non-[Normal] styles (Table II's resource mixes). *)

val overhead_percent :
  ?model:Bistpath_datapath.Area.model ->
  ?width:int ->
  Bistpath_datapath.Datapath.t ->
  solution ->
  float
(** 100 * delta / functional gates of the unmodified data path, under
    [model] (default {!Bistpath_datapath.Area.default}); like {!solve}'s,
    [model] stays an option only because perfbench's tracer passes it. *)

val pp_solution : Format.formatter -> solution -> unit
