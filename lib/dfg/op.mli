(** Operation kinds of the behavioral description.

    All operators are binary (the paper's assumption); unary uses are
    expressed by repeating an operand. Commutativity matters to
    interconnect assignment: operands of a non-commutative operator are
    pinned to the left/right ports. *)

type kind = Add | Sub | Mul | Div | And | Or | Xor | Less

val all_kinds : kind list

val commutative : kind -> bool

val symbol : kind -> string
(** "+", "-", "*", "/", "&", "|", "^", "<". *)

val of_symbol : string -> kind option

val eval : kind -> width:int -> int -> int -> int
(** Reference semantics on [width]-bit unsigned words: result mod
    2^width; [Less] yields 0/1; division by zero yields 2^width - 1 (the
    restoring divider's natural output). Shared by the behavioural DFG
    evaluator, the data-path interpreter and the gate-level library. *)

type t = {
  id : string;  (** unique operation name, e.g. "+1" *)
  kind : kind;
  left : string;  (** left operand variable *)
  right : string;  (** right operand variable *)
  out : string;  (** result variable *)
}

val operands : t -> string list
(** [left; right] (with duplicates collapsed when both are the same). *)

val pp : Format.formatter -> t -> unit
