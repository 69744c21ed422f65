(** PODEM automatic test-pattern generation (Goel 1981).

    Branch-and-bound search over primary-input assignments: repeatedly
    pick an objective (excite the fault, then advance the D-frontier),
    backtrace it to an unassigned input (guided by SCOAP
    controllability), imply, and backtrack on conflicts. Complete: a
    fault reported [Untestable] is provably redundant (no input vector
    detects it), which the tests cross-check against exhaustive fault
    simulation on small circuits. *)

type result =
  | Test of int list
      (** one bit per primary input in port order; don't-cares are 0 *)
  | Untestable  (** proven redundant *)
  | Aborted  (** backtrack budget exhausted *)

val generate :
  ?max_backtracks:int ->
  ?budget:Bistpath_resilience.Budget.t ->
  Circuit.t -> Fault.t -> result
(** Default budget 10_000 backtracks. A [budget]
    ({!Bistpath_resilience.Budget}) whose token trips mid-search aborts
    exactly like the backtrack quota — the fault is reported [Aborted],
    never misclassified as [Untestable]; each backtrack also counts one
    budget node. *)

val verify : Circuit.t -> Fault.t -> int list -> bool
(** Does the vector actually detect the fault (differing primary
    outputs)? Used to validate {!generate}'s answers. *)

type classification = {
  tested : (Fault.t * int list) list;  (** fault with a verified vector *)
  untestable : Fault.t list;
  aborted : Fault.t list;
  skipped : Fault.t list;
      (** faults never attempted because the budget's token tripped
          first; empty for unbudgeted runs *)
}

val classify_all :
  ?max_backtracks:int ->
  ?budget:Bistpath_resilience.Budget.t ->
  Circuit.t -> classification
(** Run PODEM on every collapsed fault of the circuit, in fault order.
    SCOAP and the net-to-driver table are built once for the circuit
    and shared by every fault. Under a [budget], the generation in
    flight when the token trips aborts ([aborted]) and the faults after
    it are abandoned ([skipped]). *)
