(** Variable lifetimes and the variable conflict graph.

    Conventions (see DESIGN.md §5): a variable is live on the half-open
    interval [(birth, death]]; a primary input is born at the start of its
    first-use step ([first_use - 1]); an operation result is born at the
    end of its producing step; death is the last-use step; a variable with
    no uses (a primary output, or dead code) is held one step past birth.
    Touching endpoints do not conflict (edge-triggered registers).

    All functions below consider only variables that compete for allocated
    registers under the given {!Policy.t} (default {!Policy.default}:
    everything but unused inputs). *)

val span : Dfg.t -> string -> Bistpath_graphs.Interval.span
(** Live range of one variable, policy-independent. Raises
    [Invalid_argument] for an unused primary input (it never needs a
    register and has no range). *)

val spans : ?policy:Policy.t -> Dfg.t -> (string * Bistpath_graphs.Interval.span) list
(** Every allocatable variable with its range, sorted by name. *)

type indexing = { to_index : string -> int; of_index : int -> string; count : int }
(** Bijection between variable names and dense indices 0..count-1 used to
    talk to the integer-vertex graph library. *)

val indexing : ?policy:Policy.t -> Dfg.t -> indexing
(** Indices follow the sorted order of {!spans}. *)

val conflict_graph :
  ?policy:Policy.t -> Dfg.t -> Bistpath_graphs.Ugraph.t * indexing
(** The variable conflict graph: one vertex per allocatable variable
    (dense indices), an edge iff lifetimes overlap. Always an interval
    graph. *)

val conflict_graph_of_spans :
  (string * Bistpath_graphs.Interval.span) list -> Bistpath_graphs.Ugraph.t * indexing
(** {!conflict_graph} over already computed {!spans}. *)

val min_registers : ?policy:Policy.t -> Dfg.t -> int
(** Chromatic number of the conflict graph = the minimum register count
    (exact: clique number, since interval graphs are perfect). *)
