(** Simple undirected graphs over integer vertices.

    Immutable. Vertices are arbitrary ints (not necessarily dense).
    Self-loops are rejected.

    A graph is stored int-indexed, built once by {!of_edges}: vertex [i]
    is the [i]-th smallest label, and [adj.(i)] holds the indices of its
    neighbours in ascending order. The graph kernels ({!Chordal},
    {!Clique_partition}) run over this view directly. Finding a label's
    index is O(1) when the labels are exactly [0 .. n-1] and a binary
    search otherwise. [of_edges] takes O(n log n + m), [complement]
    O(n^2). *)

module Iset : Set.S with type elt = int

type t = private {
  labels : int array;  (** The vertex labels, ascending. *)
  adj : int array array;  (** Per index, the neighbours' indices, ascending. *)
}
(** Read-only: the arrays are shared and must not be mutated. *)

val index : t -> int -> int
(** The index of a vertex label, or [-1] if the vertex is absent. *)

val of_edges : ?vertices:int list -> (int * int) list -> t
(** Graph with the given extra isolated vertices and edges (repeats
    allowed). Raises [Invalid_argument] on a self-loop. *)

val neighbors : t -> int -> Iset.t
(** Empty set if the vertex is absent. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Applies the function to each neighbour's label, ascending, without
    building a set; nothing if the vertex is absent. *)

val complement : t -> t
(** Same vertex set, complemented edges. *)
