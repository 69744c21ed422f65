(** Simple undirected graphs over integer vertices.

    Immutable; all operations are persistent. Vertices are arbitrary ints
    (not necessarily dense). Self-loops are rejected.

    A graph is stored int-indexed, built once: vertex [i] is the [i]-th
    smallest label, and [adj.(i)] holds the indices of its neighbours in
    ascending order. The graph kernels ({!Chordal}, {!Clique_partition})
    run over this view directly. Finding a label's index is O(1) when the
    labels are exactly [0 .. n-1] and a binary search otherwise, so
    [mem_edge] is O(log n + log d). The operations that return a new
    graph ([add_vertex], [add_edge], [remove_vertex], [induced],
    [complement]) rebuild it, in O(n log n + m) like [of_edges] (O(n^2)
    for [complement]); build a graph from its edge list with
    [of_edges]. *)

module Iset : Set.S with type elt = int

type t = private {
  labels : int array;  (** The vertex labels, ascending. *)
  adj : int array array;  (** Per index, the neighbours' indices, ascending. *)
}
(** Read-only: the arrays are shared and must not be mutated. *)

val empty : t

val index : t -> int -> int
(** The index of a vertex label, or [-1] if the vertex is absent. *)

val add_vertex : t -> int -> t
(** Idempotent. *)

val add_edge : t -> int -> int -> t
(** Adds both endpoints as needed. Raises [Invalid_argument] on a
    self-loop. Idempotent. *)

val of_edges : ?vertices:int list -> (int * int) list -> t
(** Graph with the given extra isolated vertices and edges (repeats
    allowed). Raises [Invalid_argument] on a self-loop. *)

val vertices : t -> int list
(** Sorted. *)

val num_vertices : t -> int

val num_edges : t -> int

val edges : t -> (int * int) list
(** Each edge once, as [(u, v)] with [u < v], sorted. *)

val mem_vertex : t -> int -> bool

val mem_edge : t -> int -> int -> bool
(** Symmetric; false if either endpoint is absent. *)

val neighbors : t -> int -> Iset.t
(** Empty set if the vertex is absent. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Applies the function to each neighbour's label, ascending, without
    building a set; nothing if the vertex is absent. *)

val degree : t -> int -> int

val remove_vertex : t -> int -> t
(** Removes the vertex and all incident edges. *)

val induced : t -> Iset.t -> t
(** Subgraph induced by the given vertex set. *)

val is_clique : t -> Iset.t -> bool
(** Do the given vertices induce a complete subgraph? *)

val is_simplicial : t -> int -> bool
(** Is the neighborhood of the vertex a clique? *)

val complement : t -> t
(** Same vertex set, complemented edges. *)

val pp : Format.formatter -> t -> unit
