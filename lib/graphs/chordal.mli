(** Chordal-graph machinery: perfect elimination orderings (the paper's
    "perfect vertex elimination schemes", PVES), chordality testing,
    maximal cliques, and per-vertex maximum clique sizes.

    Variable conflict graphs of scheduled DFGs without loops or mutual
    exclusion are interval graphs, hence chordal, so every algorithm here
    is exact and polynomial on them. *)

val is_peo : Ugraph.t -> int list -> bool
(** [is_peo g order] checks that [order] is a perfect elimination ordering:
    each vertex is simplicial in the subgraph induced by itself and the
    vertices after it, and [order] enumerates all vertices exactly once. *)

val mcs_order : Ugraph.t -> int list
(** Maximum cardinality search. The returned order, reversed, is a PEO iff
    the graph is chordal. *)

val is_chordal : Ugraph.t -> bool

val peo_with_preference : Ugraph.t -> key:(int -> 'k) -> int list
(** A PEO built by repeatedly eliminating, among the currently simplicial
    vertices, the one with the smallest [key] (by [compare]; ties broken
    by vertex id). This is the paper's structured PVES selection (Section
    III.A.1). Each key is computed once and only the neighbours of an
    eliminated vertex are rechecked, so a graph with n vertices and
    maximum degree d takes O(n d^3) time. Raises [Failure] if the graph
    is not chordal (no simplicial vertex at some step). *)

val maximal_cliques : Ugraph.t -> Ugraph.Iset.t list
(** All maximal cliques of a chordal graph, each exactly once, via a PEO.
    Raises [Failure] if the graph is not chordal. *)

val max_clique_size_per_vertex : Ugraph.t -> (int * int) list
(** [MCS(v)] of the paper: for each vertex, the size of the largest clique
    containing it. Sorted by vertex. Chordal graphs only. *)

val clique_number : Ugraph.t -> int
(** Size of a largest clique (chordal graphs only); 0 for the empty graph. *)
