(** End-to-end synthesis flows: register assignment, interconnect
    assignment, data path construction and minimal-area BIST allocation,
    packaged with the metrics Table I reports. *)

type style =
  | Traditional  (** left-edge registers, unweighted minimum interconnect *)
  | Testable of Testable_alloc.options
      (** the paper's allocation; interconnect weighted by register
          sharing degrees *)

val parse_style : string -> (style, string) Stdlib.result
(** The one flow-name parser: ["traditional"], or ["testable"] with the
    default options. Any other name is an error message. *)

type result = {
  style : style;
  regalloc : Bistpath_datapath.Regalloc.t;
  datapath : Bistpath_datapath.Datapath.t;
  bist : Bistpath_bist.Allocator.solution;
  sessions : Bistpath_bist.Session.t;
  registers : int;  (** allocated registers (Table I "# Reg") *)
  muxes : int;  (** Table I "# Mux" *)
  overhead_percent : float;  (** Table I "% BIST area" *)
}

val run :
  ?model:Bistpath_datapath.Area.model ->
  ?width:int ->
  ?io_penalty_percent:int ->
  ?transparency:bool ->
  ?budget:Bistpath_resilience.Budget.t ->
  ?cache:Bistpath_cache.Store.t ->
  style:style ->
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  result
(** Deterministic. [width] defaults to 8 bits; [io_penalty_percent]
    (default 100) is forwarded to the BIST allocation — see
    {!Bistpath_bist.Allocator.solve}. [budget] (default
    {!Bistpath_resilience.Budget.unlimited}) is forwarded to the BIST
    allocation and session scheduling, the two unbounded-search stages;
    a tripped budget yields a valid flow built from the best allocation
    found so far, and {!Bistpath_resilience.Budget.stop_reason} says
    why. [result.bist.exact] is also [false] when the allocator reached
    its fixed node cap (200,000 nodes), which does not trip the budget.

    [cache] attaches a content-addressed result store: the flow becomes
    a walk over the keyed stage DAG ({!Stage}), where each stage first
    looks up its deterministic input key and only recomputes on a miss.
    Hits and misses are counted per stage ([cache.hit.<stage>] /
    [cache.miss.<stage>]) and in aggregate; a corrupt or undecodable
    entry counts as [cache.corrupt] and recomputes. Budget-truncated
    BIST solutions are returned but never stored. Without [cache]
    (the default) the historical straight-line behaviour — spans,
    telemetry, outputs — is byte-identical. *)

(** {1 Cache keys}

    Helpers shared with the CLI and service layers so every consumer
    derives identical keys. *)

val spec_hash :
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  string
(** Content identity of a specification: the {!Stage.Schedule} root key,
    an MD5 hex digest over the canonical DFG text (which carries the
    control steps), module assignment and policy. *)

val flow_params_json :
  ?model:Bistpath_datapath.Area.model ->
  ?width:int ->
  ?io_penalty_percent:int ->
  ?transparency:bool ->
  style:style ->
  unit ->
  Bistpath_util.Json.t
(** Canonical encoding of the flow parameter set (style + options, area
    model, width, I/O penalty, transparency) with the same defaults as
    {!run} — the [params] half of an {!artifact_key}. *)

val artifact_key : stage:Stage.t -> spec_hash:string -> params:Bistpath_util.Json.t -> string
(** Key for a terminal artifact stage ({!Stage.Rtl} / {!Stage.Report}):
    chains the schedule root hash with the full parameter set, under
    which the whole pipeline is deterministic — so a warm artifact can
    be served byte-identical without re-running the flow. *)

val artifact_find :
  cache:Bistpath_cache.Store.t option ->
  stage:Stage.t ->
  key:string option ->
  string option
(** Look a terminal artifact up by its {!artifact_key}, counting
    [cache.hit.<stage>] / [cache.miss.<stage>] (and the aggregates).
    [None] for [cache] or [key] is a silent pass-through — no counters,
    no I/O — so uncached paths stay byte-identical. *)

val artifact_store :
  cache:Bistpath_cache.Store.t option ->
  stage:Stage.t ->
  key:string option ->
  string ->
  unit
(** Commit a freshly rendered terminal artifact (best-effort; see
    {!Bistpath_cache.Store.put}). Callers must skip this when the run
    was budget-truncated — the bytes would not be deterministic in the
    key. *)

val reduction_percent : traditional:result -> testable:result -> float
(** Table I's "% Reduction in BIST area":
    100 * (trad - testable) / trad. *)

val pp_result : Format.formatter -> result -> unit
