(** Cache keys for the synthesis pipeline's cached artifacts.

    {!Flow.run} is one straight-line computation; only what a caller
    waits for is cached. Each key is a deterministic content hash: the
    MD5 of a canonical {!Bistpath_util.Json} encoding of the stage's
    inputs and a per-stage schema version. Keys address the
    content-addressed store ({!Bistpath_cache.Store}).

    - [Schedule] — root, never stored. Input: the scheduled DFG
      (canonical {!Bistpath_dfg.Parser.to_string} text, which carries
      the control steps), the module assignment and the allocation
      policy. Its key is the content identity of the specification
      ({!Flow.spec_hash}).
    - [Rtl], [Report] — terminal artifacts, rendered and stored by the
      service runner. Their keys chain from the schedule hash plus the
      full flow/pipeline parameter set ({!Flow.artifact_key}), under
      which the whole pipeline is deterministic, so a warm artifact is
      served byte-identical without running the flow at all. *)

type t = Schedule | Rtl | Report

val name : t -> string
(** ["schedule"], ["rtl"], ["report"] — the names used in cache entry
    headers and in the per-stage [cache.hit.<stage>] /
    [cache.miss.<stage>] counters. *)

val key : t -> inputs:Bistpath_util.Json.t -> string
(** MD5 hex digest of the canonical encoding of
    [{stage; schema; inputs}]. *)
