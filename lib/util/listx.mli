(** List helpers used across the project. *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct positions, in order. *)

val max_by : ('a -> int) -> 'a list -> 'a option
(** Element maximizing [f]; first one on ties; [None] on the empty list. *)

val sum_by : ('a -> int) -> 'a list -> int
(** Integer sum of [f] over the list. *)

val group_by : ('a -> 'b) -> 'a list -> ('b * 'a list) list
(** Group equal keys together (polymorphic compare); keys in sorted order,
    elements in original order within a group. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if shorter). *)

val range : int -> int -> int list
(** [range lo hi] is [lo; lo+1; ...; hi-1]. Empty if [hi <= lo]. *)

val index_of : ('a -> bool) -> 'a list -> int option
(** Position of the first element satisfying the predicate. *)
