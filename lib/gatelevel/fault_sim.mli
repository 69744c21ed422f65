(** Fault simulation with 64-way bit-parallel patterns.

    For each fault, the circuit is re-evaluated with the faulty net
    forced ({!Sim.eval_chunk}, one compiled circuit and one reused net
    buffer for the whole run); a fault is detected by a pattern whose
    fault-free and faulty primary outputs differ. *)

type result = {
  total : int;
  detected : int;
  undetected : Fault.t list;
  skipped : Fault.t list;
      (** faults not graded before the budget's token tripped; empty for
          unbudgeted runs *)
}

val coverage : result -> float
(** detected / total in [0, 1]; 1.0 for an empty fault list. Skipped
    faults count against coverage (conservative). *)

val run :
  ?budget:Bistpath_resilience.Budget.t ->
  Circuit.t -> faults:Fault.t list -> patterns:int list list -> result
(** [patterns] is a list of input vectors, each one bit per primary input
    net (little-endian ints are NOT assumed — each element of a vector
    is 0 or 1). Patterns are packed 64 per simulation pass; a partial
    last pass also applies the all-zero vector in its unused lanes.

    [budget] (default {!Bistpath_resilience.Budget.unlimited}): once its
    token trips, remaining faults are abandoned cooperatively and listed
    in [skipped] — the grades already computed are still returned. *)

val run_operand_patterns :
  ?budget:Bistpath_resilience.Budget.t ->
  Circuit.t -> width:int -> faults:Fault.t list -> patterns:(int * int) list -> result
(** Convenience for two-operand modules: each pattern is an (a, b) pair
    of [width]-bit operand values. Raises [Invalid_argument] if the
    circuit has other than 2*width inputs (drive ALU select lines
    yourself via {!run}). *)

val random_operand_patterns :
  Bistpath_util.Prng.t -> width:int -> count:int -> (int * int) list
(** Uniform random operand pairs, for baseline comparisons. *)
