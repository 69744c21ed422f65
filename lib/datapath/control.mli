(** Controller synthesis: the per-control-step words that drive the data
    path — multiplexer selects, ALU function selects and register
    enables. Step 0 is the input-load phase (primary inputs latched into
    their registers); steps 1..T mirror the schedule, with each step's
    results latched at its end.

    This is the one definition of the controller's schedule: the
    emitter, the reference netlist, the interpreter, the RTL
    cross-check and the testbench read it here and derive none of it
    themselves. *)

type write = {
  rid : string;
  source_index : int;  (** index into the register's writer list *)
  variable : string;  (** the value being latched (result or input) *)
}

type unit_op = {
  mid : string;
  opid : string;
  l_select : int;  (** index into the unit's left-port source list *)
  r_select : int;  (** index into the right-port source list *)
  f_select : int;  (** index into the unit's kind list (0 for single-function) *)
}

type step = {
  index : int;  (** 0 = load phase, then 1..T *)
  ops : unit_op list;  (** units computing during this step *)
  writes : write list;  (** registers latching at the end of this step *)
}

type t = { steps : step list (* by index, 0..T *) }

val build : Datapath.t -> t
(** Derive the full control table. Raises [Invalid_argument] if some
    register would have to latch two values in one step (impossible for
    a valid register assignment — the lifetimes would overlap). *)

val latch_step : Bistpath_dfg.Dfg.t -> string -> int
(** The step at whose end a variable is latched into its register: a
    result at its operation's step, a stored primary input at its load
    step (one step before its first read). This is the capture rule: a
    primary output is sampled from its register right after this step,
    by {!Interp}, by the RTL cross-check and by the generated
    testbench. Raises [Invalid_argument] for an input no operation
    reads ({!Bistpath_dfg.Dfg} validation rejects such an output). *)

val write_schedule : t -> string -> (int * int) list
(** [(step, writer index)] of every write into a register, by step. *)

val activity : t -> string -> (int * unit_op) list
(** [(step, operation)] of every step a unit runs in, by step. *)

val pp : Format.formatter -> t -> unit
