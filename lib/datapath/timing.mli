(** Clock-period and test-time estimation.

    A simple level-based delay model (gate levels, not picoseconds): the
    clock period of a data path is set by its slowest register-to-
    register path — port multiplexer, functional unit, destination
    multiplexer. Test time combines sessions, patterns and the clock. *)

val unit_levels : width:int -> Bistpath_dfg.Massign.hw -> int
(** Logic depth of a unit: ripple adder/subtractor ~ 2 levels per bit,
    comparator 3 per bit, array multiplier ~ 4 per bit, divider ~ 6 per
    bit, bitwise logic 1; an ALU adds 2 levels of result selection on
    top of its slowest kind. *)

val mux_levels : inputs:int -> int
(** ceil(log2 k) levels of 2:1 multiplexing; 0 for k <= 1. *)

val clock_levels : width:int -> Datapath.t -> int
(** The critical register-to-register path of the data path. *)

val schedule_latency : Datapath.t -> int
(** Control steps per execution, including the input-load step. *)

type test_time = {
  sessions : int;
  patterns_per_session : int;
  clock : int;  (** gate levels per test clock *)
  total_cycles : int;  (** sessions x patterns *)
}

val test_time : ?patterns:int -> width:int -> Datapath.t -> sessions:int -> test_time
(** Patterns default to one LFSR period (2^width - 1). *)

val pp_test_time : Format.formatter -> test_time -> unit
