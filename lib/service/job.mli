(** Job specifications for the supervised service.

    One job = one synthesis pipeline applied to one design, described
    by a single NDJSON line:

    {v
    {"id":"fir-rtl","spec":"fir8","pipeline":"rtl","width":8,
     "flow":"testable","transparency":false,"patterns":255,
     "timeout":5.0,"leaf_budget":10000}
    v}

    Only ["spec"] (a benchmark tag or a path to a [.dfg]/[.beh] file)
    is required. ["id"] defaults to a deterministic name derived from
    the spool file and line number; it keys the journal and names the
    result file, so it is restricted to
    [A-Za-z0-9._-] (no path separators). ["pipeline"] defaults to
    ["run"]; ["check"] runs the static verifier over the flow's
    artifacts ({!Bistpath_check.Check}); ["verify"] parses the emitted
    RTL back and proves it equivalent to the in-memory data path
    ({!Bistpath_rtl.Equiv}). ["timeout"] (seconds) and ["leaf_budget"] bound the job
    like the [--timeout] / [--leaf-budget] CLI flags; a tripped budget
    yields a [degraded] (best-so-far) result rather than a failure. *)

type pipeline = Run | Pareto | Coverage | Rtl | Export | Check | Verify

type t = {
  id : string;
  spec : string;  (** benchmark tag or DFG/behavioural file path *)
  pipeline : pipeline;
  width : int;  (** default 8 *)
  flow : string;  (** ["testable"] (default) or ["traditional"] *)
  transparency : bool;
  patterns : int;  (** LFSR patterns for [Coverage]; default 255 *)
  timeout_s : float option;
  leaf_budget : int option;
}

val pipeline_name : pipeline -> string

val of_json : default_id:string -> Bistpath_util.Json.t -> (t, string) result
(** Validates field types, the id alphabet, the pipeline name and the
    numeric ranges ([width >= 1], [patterns >= 1], [timeout > 0],
    [leaf_budget >= 1]). Unknown fields are rejected so a typo in a
    spec cannot silently change behaviour. *)

val parse_line : default_id:string -> string -> (t, string) result
(** [of_json] over one NDJSON line. *)

val to_json : t -> Bistpath_util.Json.t
(** Inverse of {!of_json}: [of_json (to_json j) = Ok j]. Used by the
    journal's [accept] records so [--resume] can re-queue jobs without
    re-reading the spool. *)

val class_of : t -> string
(** The circuit-breaker class: the pipeline name. A poisoned pipeline
    fails fast without stalling jobs of other classes. *)
