(** Scheduled data-flow graphs G = (V, E): V the operations, E the
    variables, plus a schedule S mapping each operation to a control step
    (Section III of the paper). *)

module Smap : Map.S with type key = string
module Sset : Set.S with type elt = string

type t = {
  name : string;
  ops : Op.t list;  (** in declaration order *)
  inputs : string list;  (** primary-input variables *)
  outputs : string list;  (** primary-output variables *)
  schedule : int Smap.t;  (** op id -> control step, 1-based *)
}

val make :
  name:string ->
  ops:Op.t list ->
  inputs:string list ->
  outputs:string list ->
  schedule:(string * int) list ->
  t
(** Build and validate. Raises [Invalid_argument] describing the first
    violation found: a primary input or output declared twice,
    duplicate op ids, a variable produced twice, an
    operand that is neither a primary input nor produced, a cycle, a
    missing or non-positive schedule entry, an operation scheduled no
    later than one of its producers, an output variable that does not
    exist, or an output that is a primary input no operation reads (no
    register would hold it). (The message is the first diagnostic
    {!make_diags} reports.) *)

type lines = {
  op_lines : int list;  (** source line of each operation, in [ops] order *)
  input_lines : int list;  (** source line of each primary input, in [inputs] order *)
  output_lines : int list;  (** source line of each primary output, in [outputs] order *)
}
(** Where a textual DFG declared its pieces ({!Parser}), so a
    diagnostic can point at the line to fix. *)

val make_diags :
  ?max_errors:int ->
  ?lines:lines ->
  name:string ->
  ops:Op.t list ->
  inputs:string list ->
  outputs:string list ->
  schedule:(string * int) list ->
  unit ->
  (t, Bistpath_resilience.Diagnostic.t list) result
(** Like {!make} but accumulating: [Error] carries every violation found
    (capped at [max_errors],
    20 by default)
    instead of raising on the first. With [lines], each diagnostic
    carries the line of the operation, input or output declaration it
    names; a duplicate, that of the declaration repeating it. *)

val num_csteps : t -> int
(** Largest control step used. *)

val variables : t -> string list
(** All variables (inputs + every operand/result), sorted, each once. *)

val producer : t -> string -> Op.t option
(** Operation producing a variable, if any ([None] = primary input). *)

val consumers : t -> string -> Op.t list
(** Operations reading a variable, in declaration order. *)

val used_inputs : t -> string list
(** Primary inputs some operation reads, in declaration order: the ones
    the data path stores and the emitted module has pins for. *)

val cstep : t -> string -> int
(** Control step of an operation id. Raises [Not_found] if unknown. *)

val ops_in_step : t -> int -> Op.t list

val op_by_id : t -> string -> Op.t option

val kind_counts : t -> (Op.kind * int) list
(** How many operations of each kind, kinds with zero omitted. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering grouped by control step (regenerates the
    paper's Fig. 2 for ex1). *)
