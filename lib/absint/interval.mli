(** The value domain: an unsigned interval refined by known bits.

    Every abstract value describes a set of [width]-bit unsigned machine
    words as the intersection of an interval [\[lo, hi\]] and a
    bit-level constraint ([zeros] = bits known to be 0, [ones] = bits
    known to be 1). The two halves are kept mutually reduced: [lo] is
    at least [ones], [hi] clears every bit in [zeros], and the leading
    bits shared by [lo] and [hi] are folded back into [zeros]/[ones]
    (values in a contiguous interval agree on every bit above the
    highest differing bit).

    Transfer functions mirror {!Bistpath_dfg.Op.eval} exactly:
    arithmetic is mod [2^width] unsigned, [Less] yields 0/1, and
    division by zero yields the all-ones word [2^width - 1]. Soundness
    is enforced by an exhaustive enumeration test (widths 1-4, every
    interval pair, every kind): each concrete [Op.eval] result lies in
    the abstract result and respects its known bits, and the wrap
    verdicts are exact in the [No]/[Must] directions. *)

type t = private {
  lo : int;  (** smallest possible value, [0 <= lo <= hi] *)
  hi : int;  (** largest possible value, [hi <= 2^width - 1] *)
  zeros : int;  (** mask of bits known to be 0 *)
  ones : int;  (** mask of bits known to be 1 *)
}

type tri = No | May | Must
    (** Three-valued verdict: the event (modular wrap-around, division
        by zero) happens for no / some / every concrete instantiation
        of the operand intervals. *)

type transfer = {
  value : t;
  overflow : tri;  (** the mathematical result exceeded [2^width - 1]
                       (or went negative) and was reduced mod [2^width] *)
  div_by_zero : tri;  (** the divisor was zero ([No] for non-division kinds) *)
}

val make : width:int -> int -> int -> t
(** [make ~width lo hi] — the interval, clamped into [\[0, 2^width-1\]]
    and reduced against the known bits it implies. *)

val full : width:int -> t
val const : width:int -> int -> t

val join : width:int -> t -> t -> t
val widen : width:int -> old:t -> t -> t
(** Widening for loop write-back chains: a bound that grew since [old]
    jumps straight to its extreme, and known bits that changed are
    dropped — so any ascending chain stabilizes in one step per bound. *)

val equal : t -> t -> bool
val is_const : t -> int option

val bits : t -> int
(** Bits needed to represent every admitted value (at least 1). *)

val to_string : t -> string
(** Witness rendering: ["{k}"] for a constant, ["[lo,hi]"] otherwise. *)

val transfer : Bistpath_dfg.Op.kind -> width:int -> t -> t -> transfer
(** Abstract [Op.eval kind ~width] over two independent operands. *)

val transfer_same : Bistpath_dfg.Op.kind -> width:int -> t -> transfer
(** Abstract [Op.eval kind ~width x x] — both operands are the {e same}
    value, which is strictly more precise than [transfer] on the pair:
    [x - x = 0], [x ^ x = 0], [x < x = 0], [x / x] is 1 (or all-ones at
    [x = 0]), and [x & x = x | x = x]. *)
