(** Combinational gate-level netlists.

    Nets are dense integers; gates are stored in topological order (the
    builder only lets a gate read nets that already exist, so creation
    order is evaluation order). Registers are not modelled here — the
    BIST architecture simulation drives module inputs from LFSR models
    and compacts outputs into MISR models at the word level. *)

type kind = And | Or | Nand | Nor | Xor | Xnor | Not | Buf

type gate = { kind : kind; inputs : int list; output : int }

type t = {
  name : string;
  num_nets : int;
  inputs : int list;  (** primary input nets, in port order *)
  outputs : int list;  (** primary output nets, in port order *)
  gates : gate array;  (** topological order *)
}

val num_gates : t -> int

(** Builder: allocate nets, emit gates, then {!Builder.finish}. *)
module Builder : sig
  type b

  val create : string -> b

  val input : b -> int
  (** Fresh primary-input net. *)

  val inputs : b -> int -> int list

  val gate : b -> kind -> int list -> int
  (** Emit a gate over existing nets; returns its output net. *)

  val const0 : b -> int
  (** A net tied low (x AND NOT x built over a dedicated input-independent
      spare: implemented as XOR of a net with itself). Cached. *)

  val const1 : b -> int

  val output : b -> int -> unit
  (** Mark an existing net as primary output (in call order). *)

  val finish : b -> t
  (** Raises [Invalid_argument] if no outputs were declared. *)
end
