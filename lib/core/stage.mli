(** The synthesis pipeline as an explicit keyed stage DAG.

    {!Flow.run} used to be a straight-line pipeline; it is now a walk
    over this DAG, where every stage declares its dependencies and
    derives a deterministic content key from a canonical
    {!Bistpath_util.Json} encoding of its inputs (upstream output
    hashes plus its own parameters) and a per-stage schema version.
    Keys address the content-addressed store
    ({!Bistpath_cache.Store}), making re-synthesis incremental: only
    the stages whose input hash changed re-run.

    Stages, their typed inputs and outputs, and what their keys cover:

    - [Schedule] — root. Input: the scheduled DFG (canonical
      {!Bistpath_dfg.Parser.to_string} text, which carries the control
      steps), the module assignment and the allocation policy. Output:
      nothing to compute — its key {e is} its output hash, the content
      identity of the specification ({!Flow.spec_hash}).
    - [Alloc] — register assignment. Input: for the traditional flow,
      the lifetime spans plus policy (the left-edge algorithm is a pure
      function of them, so a spec edit that preserves lifetimes reuses
      the assignment); for the testable flow, the full schedule hash
      plus the {!Testable_alloc.options} triple. Output payload: the
      {!Bistpath_datapath.Regalloc} classes.
    - [Interconnect] — operand orientation. Input: schedule and alloc
      output hashes plus the objective (unweighted / SD-weighted).
      Output payload: the set of swapped operation ids — the data path
      is rebuilt from it with {!Bistpath_datapath.Datapath.build},
      which is exactly how {!Bistpath_datapath.Interconnect.optimize}
      terminates.
    - [Bist] — BIST embedding selection and session scheduling.
      Input: interconnect output hash, area model, width, I/O penalty
      and transparency. Output payload: the
      {!Bistpath_bist.Allocator.solution} fields plus the session
      partition. Only exact (non-budget-truncated) solutions are
      stored.
    - [Rtl], [Report] — terminal artifact stages, executed by the CLI
      and service layers (they own rendering). Their keys chain from
      the schedule root hash plus the full flow/pipeline parameter set
      ({!Flow.artifact_key}) — a sound over-approximation of their
      upstream hashes, since the whole pipeline is deterministic in
      those inputs — which lets a warm artifact be served byte-identical
      without rebuilding the flow at all. *)

type t = Schedule | Alloc | Interconnect | Bist | Rtl | Report

val name : t -> string
(** ["schedule"], ["alloc"], ["interconnect"], ["bist"], ["rtl"],
    ["report"] — the names used in cache entry headers and in the
    per-stage [cache.hit.<stage>] / [cache.miss.<stage>] counters. *)

val key : t -> inputs:Bistpath_util.Json.t -> string
(** MD5 hex digest of the canonical encoding of
    [{stage; schema; inputs}]. *)

val out_hash : key:string -> payload:string -> string
(** Content identity of a stage's output: digests the key (full input
    provenance) together with the payload, so downstream keys cover
    the entire upstream computation even when a payload alone is
    ambiguous (the interconnect swap set, say, means nothing without
    the DFG that produced it). *)
