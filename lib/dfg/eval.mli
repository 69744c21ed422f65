(** Behavioural evaluation of a DFG: the golden reference the
    cycle-accurate data-path interpreter is checked against. *)

val run :
  Dfg.t -> width:int -> inputs:(string * int) list -> (string * int) list
(** Execute all operations in schedule order on [width]-bit unsigned
    words; returns the value of every primary output (sorted by name).
    Raises [Invalid_argument] if an input binding is missing or an
    unknown input is supplied. *)
