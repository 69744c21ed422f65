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
    neighbour counts live in flat int-indexed matrices, updated per merge
    over the clusters next to the merged pair, and a scan compares ints
    only: n vertices take O(n^3) time in the worst case, O(n^2) memory,
    and one call to [weight] per ordered pair of adjacent vertices
    ([weight] is only ever summed over edges). *)
