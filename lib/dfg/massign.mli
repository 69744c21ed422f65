(** Module assignment sigma : V -> M (Section III) and the derived
    per-module variable sets of Definitions 2 and 3. *)

type hw = {
  mid : string;  (** module instance name, e.g. "M1", "ALU2" *)
  kinds : Op.kind list;  (** operations the unit can perform *)
}
(** A hardware functional unit. A unit with more than one kind is an ALU. *)

type t = {
  units : hw list;
  of_op : string Dfg.Smap.t;  (** op id -> module id *)
}

val make : Dfg.t -> units:hw list -> bind:(string * string) list -> t
(** Validate a module assignment for a DFG: every operation bound exactly
    once, to an existing unit supporting its kind, and no two operations
    on the same unit in the same control step. Raises [Invalid_argument]
    on violations. *)

val unit_of_op : t -> string -> hw
(** Unit an operation id is bound to. Raises [Not_found]. *)

val instances : t -> Dfg.t -> string -> Op.t list
(** [instances t dfg mid]: operations mapped to unit [mid], in schedule
    order — the "instances" of that module. *)

val temporal_multiplicity : t -> Dfg.t -> string -> int
(** Definition 2: TM(M) = number of operations mapped onto M. *)

val describe : t -> Dfg.t -> string
(** Short summary like "1+, 2*, 1-" (Table I's "Module Assignment"
    column): counts of units by capability. *)
