(** Allocation policy: which variables compete for allocated registers.

    - [allocate_inputs]: when false, primary inputs live in dedicated
      I/O registers outside the allocated register file (the convention
      for loop benchmarks like the differential-equation solver, whose
      published register counts cover temporaries only).
    - [carried]: loop write-backs [(result, input)] — the result variable
      is stored into the dedicated register of the named input (next
      iteration's value), e.g. x1 -> x in the Paulin benchmark. Carried
      results do not occupy allocated registers, and they make the
      dedicated register a signature-analysis candidate (it receives a
      unit output) and possibly self-adjacent — the structure Avra's and
      the paper's CBILBO analyses revolve around. Requires
      [allocate_inputs = false]. *)

type t = {
  allocate_inputs : bool;
  carried : (string * string) list;  (** (produced variable, input variable) *)
}

val default : t
(** Inputs allocated, nothing carried. *)

val dedicated_io : t
(** Inputs dedicated, nothing carried. *)

val with_carried : (string * string) list -> t
(** Dedicated inputs plus the given write-backs. *)

val validate : Dfg.t -> t -> unit
(** Raises [Invalid_argument] unless every carried pair maps a produced
    variable to a distinct used primary input, with
    [allocate_inputs = false], and no two results carried into the same
    input. *)

val carried_into : t -> string -> string option
(** [carried_into p w] is the input register target of result [w]. *)

val allocatable : t -> produced:bool -> read:bool -> string -> bool
(** Does this variable compete for an allocated register, given whether
    an operation produces it and whether one reads it? *)
