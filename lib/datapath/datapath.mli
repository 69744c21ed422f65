(** Structural RTL data paths: registers, functional units and the
    multiplexer connectivity implied by a register assignment plus an
    operand-orientation (interconnect) choice.

    Every operand reaches a unit port from a register: variables excluded
    from allocation (DESIGN.md §3) get a dedicated input register. A port
    or register fed by more than one source gets a multiplexer. *)

type reg = {
  rid : string;
  vars : string list;  (** variables stored over time *)
  dedicated : bool;  (** dedicated I/O register, outside the allocated file *)
}

type route = {
  opid : string;
  l_reg : string;  (** register feeding the unit's left port *)
  r_reg : string;  (** register feeding the unit's right port *)
  swapped : bool;  (** operands exchanged w.r.t. the DFG text (commutative only) *)
  out_reg : string;  (** register receiving the result *)
}

type wsrc = From_unit of string | From_port of string
(** What can drive a register input: a functional unit's output, or a
    primary-input pin. *)

type t = {
  dfg : Bistpath_dfg.Dfg.t;
  massign : Bistpath_dfg.Massign.t;
  regs : reg list;
  routes : route list;  (** one per operation *)
  reg_writers : (string * wsrc list) list;  (** per register, distinct, sorted *)
  outputs : (string * string) list;  (** primary output variable -> register *)
}

val build :
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  Regalloc.t ->
  policy:Bistpath_dfg.Policy.t ->
  swap:(string -> bool) ->
  t
(** Assemble the data path. [swap op] decides operand orientation per
    operation (ignored — forced to [false] — for non-commutative kinds).
    Variables excluded from allocation by the policy live in dedicated
    registers named "IN_<input>"; a carried result is routed into its
    target's dedicated register (loop write-back). Raises
    [Invalid_argument] if the register assignment does not cover the DFG
    ({!Regalloc.is_valid_for}). *)

val unit_port_sources : t -> string -> string list * string list
(** Distinct registers feeding the (left, right) ports of a unit, each
    list sorted. *)

val input_registers : t -> string -> string list
(** IR_k of Definition 6: registers holding at least one operand of some
    instance of the unit — equals the union of both port source lists. *)

val output_registers : t -> string -> string list
(** OR_k of Definition 6: registers receiving at least one result of the
    unit. *)

val mux_count : t -> int
(** Number of multiplexers: one per unit port or register input with two
    or more distinct sources (the counting used by the paper's Table I). *)

val mux_input_total : t -> int
(** Total 2:1-multiplexer equivalents: sum over multiplexed points of
    (sources - 1); used by the area model. *)

val allocated_register_count : t -> int
(** Registers excluding dedicated I/O registers (Table I's "# Reg"). *)

val self_adjacent_registers : t -> string list
(** Registers R with a combinational loop R -> unit -> R: R feeds some
    port of a unit (in any instance) and also receives that unit's
    output (in any instance). Avra's RALLOC minimizes these; testing
    such a unit with R as both pattern source and response sink needs a
    CBILBO. *)

val pp : Format.formatter -> t -> unit
