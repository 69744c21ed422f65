(** A register assignment Pi_R: a partition of the (allocated) variables
    into registers (Section III of the paper). *)

type t = {
  classes : (string * string list) list;
      (** register id -> variables it holds, ids unique, variables sorted *)
}

val make : (string * string list) list -> t
(** Validate: unique register ids, no variable in two registers, no empty
    register. Raises [Invalid_argument]. *)

val register_of : t -> string -> string option
(** Register holding a variable, if allocated. *)

val num_registers : t -> int

val variables : t -> string list

val is_valid_for : t -> Bistpath_dfg.Dfg.t -> policy:Bistpath_dfg.Policy.t -> bool
(** Partition covers exactly the allocatable variables under the policy
    and no two variables sharing a register have overlapping lifetimes. *)

val pp : Format.formatter -> t -> unit
(** e.g. "R1={a,c,f} R2={b,d,g,h} R3={e}". *)
