(** Minimal-area BIST resource allocation — our reimplementation of the
    role the BITS system plays in the paper's evaluation (DESIGN.md §3).

    Given a data path, pick one BIST embedding per functional unit so that
    the total modification cost (gates added to upgrade registers to
    their accumulated styles) is minimal. Branch-and-bound with a greedy
    warm start and incremental cost maintenance: units in
    fewest-embeddings-first order, branches in cheapest-delta-first
    order, pruning on the running cost. The paper-scale designs are
    solved exactly; a fixed cap of 200,000 search nodes ([node_cap])
    bounds the search on large generated designs. Hitting the cap is
    reported only through [exact = false]: it does not trip the caller's
    {!Bistpath_resilience.Budget}, whose {!Bistpath_resilience.Budget.stop_reason}
    stays [None]. *)

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
(** Default model {!Bistpath_datapath.Area.default}, width 8. Units
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
    [exact = false], and the budget's stop reason says why. With the
    default budget behaviour and results are bit-identical to previous
    releases.

    Fault injection: each complete leaf probes the [allocator.leaf] site
    ({!Bistpath_resilience.Inject}). *)

val style_counts : solution -> (Resource.style * int) list
(** Histogram of non-[Normal] styles (Table II's resource mixes). *)

val overhead_percent :
  ?model:Bistpath_datapath.Area.model ->
  ?width:int ->
  Bistpath_datapath.Datapath.t ->
  solution ->
  float
(** 100 * delta / functional gates of the unmodified data path. *)

val pp_solution : Format.formatter -> solution -> unit
