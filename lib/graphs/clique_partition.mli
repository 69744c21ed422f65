(** Clique partitioning of a compatibility graph (Tseng-Siewiorek style).

    Used for module assignment: vertices are operations, an edge joins two
    operations that may share a hardware module (same operator class,
    different control steps). A partition into cliques is a module
    assignment; fewer cliques = fewer modules. *)

val greedy :
  ?weight:(int -> int -> int) -> Ugraph.t -> Ugraph.Iset.t list
(** Greedy clique partitioning: repeatedly merge the pair of compatible
    super-vertices with the largest number of common compatible
    neighbors, ties broken by the larger summed [weight] over the pair's
    cross vertex pairs (lexicographically: any number of common
    neighbours outranks any weight), then by the first pair in
    [Listx.pairs] order over the current cluster list. The merged cluster
    is put first; the others keep their order. Every vertex appears in
    exactly one returned clique. Mergeability, cross weights and common
    neighbour counts are updated per merge, so n vertices take O(n^3)
    time and n^2 calls to [weight]. *)

val exact_min : Ugraph.t -> Ugraph.Iset.t list
(** Minimum-cardinality clique partition by exhaustive search (equivalent
    to coloring the complement graph exactly). Exponential; small graphs
    only. *)

val is_partition : Ugraph.t -> Ugraph.Iset.t list -> bool
(** Are the given sets disjoint cliques of [g] covering every vertex? *)
