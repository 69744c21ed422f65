(** Gate-level implementations of the datapath operator modules.

    All circuits take two [width]-bit operands (a then b, LSB first in
    each port's net list) and produce a [width]-bit result (plus derived
    flags where noted). These are the real structures the area model of
    [Bistpath_datapath.Area] abstracts, and the fault-simulation targets
    of the BIST coverage experiments. *)

val array_multiplier : width:int -> Circuit.t
(** a * b mod 2^width (the datapath truncates to register width). *)

val alu : Bistpath_dfg.Op.kind list -> width:int -> Circuit.t
(** Multifunction unit: all listed operations computed in parallel, a
    one-hot select (extra inputs appended after the operands, one per
    kind in list order) muxes the result. *)

val of_kind : Bistpath_dfg.Op.kind -> width:int -> Circuit.t
(** The single-function circuit for an operation kind: a ripple-carry
    adder (width sum bits, then carry-out), a two's-complement
    subtractor (width bits, then borrow-out), {!array_multiplier}, an
    unsigned restoring array divider (width quotient bits; division by
    zero yields all ones, the array's natural result), a bitwise
    And/Or/Xor, or an unsigned [a < b] comparator (one output bit). *)
