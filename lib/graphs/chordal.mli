(** Chordal-graph machinery: perfect elimination orderings (the paper's
    "perfect vertex elimination schemes", PVES), chordality testing and
    per-vertex maximum clique sizes.

    Variable conflict graphs of scheduled DFGs without loops or mutual
    exclusion are interval graphs, hence chordal, so every algorithm here
    is exact and polynomial on them.

    Every function runs over the graph's int-indexed view
    ({!Ugraph.t}) and never removes a vertex: a maximum cardinality
    search with a heap takes O((n + m) log n), and [is_peo],
    [is_chordal], [clique_number] and [max_clique_size_per_vertex] then
    read one elimination order and
    each vertex's later neighbours, O(n + m) more (Tarjan & Yannakakis
    1984). *)

val is_peo : Ugraph.t -> int list -> bool
(** [is_peo g order] checks that [order] is a perfect elimination ordering:
    each vertex is simplicial in the subgraph induced by itself and the
    vertices after it, and [order] enumerates all vertices exactly once. *)

val is_chordal : Ugraph.t -> bool

val peo_with_preference : Ugraph.t -> key:(int -> 'k) -> int list
(** A PEO built by repeatedly eliminating, among the currently simplicial
    vertices, the one with the smallest [key] (by [compare]; ties broken
    by vertex id). This is the paper's structured PVES selection (Section
    III.A.1). Each key is computed once; each vertex keeps the number of
    non-adjacent pairs among its remaining neighbours, and eliminating a
    vertex updates only its neighbours' counts, one bitset AND per
    neighbour. A graph with n vertices and m edges takes O(n log n)
    comparisons of keys plus O(m n / 32) time. Raises [Failure] if the
    graph is not chordal (no simplicial vertex at some step). *)

val max_clique_size_per_vertex : Ugraph.t -> (int * int) list
(** [MCS(v)] of the paper: for each vertex, the size of the largest clique
    containing it. Sorted by vertex. Raises [Failure] if the graph is not
    chordal. *)

val clique_number : Ugraph.t -> int
(** Size of a largest clique; 0 for the empty graph. Raises [Failure] if
    the graph is not chordal. *)
