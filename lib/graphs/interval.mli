(** Interval graphs from half-open lifetime intervals.

    A variable live on [(birth, death]] conflicts with another iff the open
    interiors of their intervals intersect; touching endpoints (one value
    read in the same step another is written) do not conflict. *)

type span = { birth : int; death : int }
(** Live range [(birth, death]], in control-step units. Requires
    [death > birth]. *)

val overlap : span -> span -> bool
(** Do two spans conflict? *)

val graph : (int * span) list -> Ugraph.t
(** Conflict graph of the given labelled spans, built by one sweep over
    the spans sorted by birth: O(n log n + m) for n spans and m
    conflicts. Raises [Invalid_argument] on a malformed span (the first
    in list order) or a duplicate label. *)
