(** Adjacency as bitset rows, 32 vertices a word: the common-neighbour
    count of two vertices is one AND and popcount per word of a row,
    O(n / 32). A mutable scratch structure over vertex indices, built in
    O(n^2 / 32 + m) by the kernels that count common neighbours. *)

type t

val of_adjacency : int array array -> t
(** Row [i] holds the entries of [adj.(i)]. *)

val common : t -> int -> int -> int
(** The number of vertices in both rows. *)

val remove : t -> int -> int -> unit
(** [remove t i j] clears [j] from row [i]. *)
