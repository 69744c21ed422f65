(** Sharing degrees (Definitions 4 and 5): how many module variable sets
    a variable or a register intersects. A register with a high sharing
    degree can serve as test-pattern generator (input sets) or signature
    analyzer (output sets) for many modules at once.

    [ctx] is the one indexed view of a scheduled, bound design that the
    allocators work on. It is built once, in O(n log n) for n operations,
    and numbers both sides densely: units (modules with at least one
    instance) by their sorted id, variables by {!Bistpath_dfg.Dfg.variables}
    order. A set of units is an [int] bit mask (bit [u] = unit [u]), so a
    design may use at most 63 units. *)

type ctx = private {
  unit_ids : string array;  (** unit index -> module id, sorted *)
  unit_index : (string, int) Hashtbl.t;  (** module id -> unit index *)
  var_index : (string, int) Hashtbl.t;
      (** variable name -> index, in {!Bistpath_dfg.Dfg.variables} order *)
  in_mask : int array;
      (** per variable: units M with v in I_M (the units reading it) *)
  out_mask : int array;
      (** per variable: units M with v in O_M (the unit writing it) *)
  sd : int array;  (** per variable: SD(v) *)
  out_count : int array;  (** per unit: |O_M| *)
  instances : int array array;
      (** per unit: its instances (operation positions in the DFG's
          operation list) in schedule order; the length is TM(M) *)
  instance_unit : int array;  (** per operation position: its unit *)
  operand_of : int array array;
      (** per variable: the operation positions reading it, each once,
          in declaration order *)
  ins : Bistpath_dfg.Dfg.Sset.t array;  (** per unit: I_M *)
  outs : Bistpath_dfg.Dfg.Sset.t array;  (** per unit: O_M *)
}

val make : Bistpath_dfg.Dfg.t -> Bistpath_dfg.Massign.t -> ctx
(** Raises [Invalid_argument] when more than 63 units have instances. *)

val popcount : int -> int
(** Number of units in a mask. *)

val units : ctx -> string list
(** Module ids with at least one instance, sorted. *)

val var_index : ctx -> string -> int option

val in_set : ctx -> string -> Bistpath_dfg.Dfg.Sset.t
(** I_M of a unit. *)

val out_set : ctx -> string -> Bistpath_dfg.Dfg.Sset.t
(** O_M of a unit. *)

val sd_var : ctx -> string -> int
(** SD(v) = #{M : v in I_M} + #{M : v in O_M}. *)

val masks : ctx -> string list -> int * int
(** The units whose input sets, and the units whose output sets, hold
    any of the given variables. Names outside the design count for
    nothing. *)

val sd_vars : ctx -> string list -> int
(** SD of a register holding the given variables: the number of distinct
    input sets plus distinct output sets intersected (Definition 5):
    the popcounts of {!masks}. *)

val delta_sd : ctx -> string list -> string -> int
(** [delta_sd ctx reg v] = SD(reg + v) - SD(reg): the increase in the
    register's sharing degree from absorbing [v]. *)

val source_units : ctx -> string -> string list
(** Units producing the variable (0 or 1 for a well-formed DFG). *)

val dest_units : ctx -> string -> string list
(** Units consuming the variable, sorted, distinct. *)
