(** Fault simulation with 64-way bit-parallel patterns.

    The fault-free circuit is evaluated once per chunk of 64 patterns
    ({!Sim.reference}); each fault then re-evaluates only its net's
    fanout cone, chunk by chunk, until a chunk detects it
    ({!Sim.faulty_chunks}). A fault is detected by a pattern whose
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
    is 0 or 1). Patterns are packed 64 per simulation pass; only the
    lanes that hold a pattern are graded.

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
