(** Linear-feedback shift registers: the pattern-generator half of a
    BILBO-style test register. Fibonacci (external-XOR) form with
    primitive feedback polynomials, so a non-zero seed cycles through all
    2^width - 1 non-zero states. *)

type t

val primitive_taps : int -> int list
(** Tap positions (1-based exponents of the primitive polynomial, the
    width itself included) for widths 2..32. Raises [Invalid_argument]
    outside that range. *)

val create : width:int -> seed:int -> t
(** Non-zero seed required (an all-zero LFSR is stuck). *)

val step : t -> int
(** Advance one clock; returns the new state. *)

val period : width:int -> int
(** 2^width - 1. *)
