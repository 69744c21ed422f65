(** Test-session scheduling.

    Minimal BIST area deliberately does not test every unit at once
    (Section II); units whose chosen embeddings place incompatible duties
    on the same register must run in different sessions:

    - two units sharing an SA register conflict (one MISR input per
      cycle);
    - a register generating for one unit and compacting for another
      conflicts unless it became a CBILBO (whose two halves are
      independent);
    - a unit that is a transparent pattern channel for another (its
      [l_via] or [r_via]) cannot be under test at the same time.

    Sessions are assigned by greedy (first-fit) coloring of this
    conflict graph, in the solution's embedding order. The rule and the
    coloring have one implementation, the int kernel
    {!Allocator.sessions}, which the Pareto sweep's session counts
    ({!Allocator.leaf_sessions}) share. *)

type t = {
  sessions : string list list;  (** unit ids per session, session order *)
}

val schedule : ?budget:Bistpath_resilience.Budget.t -> Allocator.solution -> t
(** Greedy-coloring schedule: session [k] lists, in embedding order,
    the units {!Allocator.sessions} puts in session [k]. If [budget] (default
    {!Bistpath_resilience.Budget.unlimited}) has already tripped, the
    coloring is skipped and the degenerate one-unit-per-session schedule
    — valid under every conflict constraint, just conservative — is
    returned so a cancelled pipeline still emits a usable plan. *)

val num_sessions : t -> int

val pp : Format.formatter -> t -> unit
