(** End-to-end synthesis flows: register assignment, interconnect
    assignment, data path construction and minimal-area BIST allocation,
    packaged with the metrics Table I reports.

    A flow is one straight-line pass: it takes milliseconds at paper
    scale, so nothing inside it is cached. The result cache stores only
    the rendered artifacts a caller waits for, keyed by {!artifact_key}
    (see [Bistpath_service.Runner]). *)

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
  ?width:int ->
  ?io_penalty_percent:int ->
  ?transparency:bool ->
  ?budget:Bistpath_resilience.Budget.t ->
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
    its fixed node cap (200,000 nodes), which does not trip the budget. *)

(** {1 Cache keys}

    The terminal-artifact keys of the service runner's result cache,
    exported so every consumer (the runner, benchmarks, tracers) derives
    identical keys. The flow itself never touches the cache. *)

val spec_hash :
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  string
(** Content identity of a specification: the {!Stage.Schedule} root key,
    an MD5 hex digest over the canonical DFG text (which carries the
    control steps), module assignment and policy. *)

val flow_params_json :
  ?width:int ->
  ?io_penalty_percent:int ->
  ?transparency:bool ->
  style:style ->
  unit ->
  Bistpath_util.Json.t
(** Canonical encoding of the flow parameter set (style + options, area
    model, width, I/O penalty, transparency) with the same defaults as
    {!run} — the [params] half of an {!artifact_key}. The area model is
    always {!Bistpath_datapath.Area.default}, the one {!run} costs
    with; it stays in the encoding so existing keys keep their
    digests. *)

val artifact_key : stage:Stage.t -> spec_hash:string -> params:Bistpath_util.Json.t -> string
(** Key for a terminal artifact stage ({!Stage.Rtl} / {!Stage.Report}):
    chains the schedule root hash with the full parameter set, under
    which the whole pipeline is deterministic — so a warm artifact can
    be served byte-identical without re-running the flow. *)

val reduction_percent : traditional:result -> testable:result -> float
(** Table I's "% Reduction in BIST area":
    100 * (trad - testable) / trad. *)

val pp_result : Format.formatter -> result -> unit
