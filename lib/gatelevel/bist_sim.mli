(** Full BIST self-test simulation: the experiment the paper's
    methodology promises but never measures (DESIGN.md §3).

    For every functional unit of a data path, drive its two input ports
    from the LFSR models of the TPG registers chosen by the BIST
    allocation, run the unit's gate-level implementation, compact the
    responses in the SA register's MISR model, and fault-simulate the
    unit against the same pattern sequence. *)

type unit_report = {
  mid : string;
  patterns : int;
  faults_total : int;
  faults_detected : int;
  coverage : float;  (** in [0,1] *)
  signature : int;  (** fault-free MISR signature *)
  aliased : int;
      (** detected-at-outputs faults whose faulty signature nevertheless
          equals the fault-free one (escaped by aliasing) *)
  skipped : int;
      (** faults not graded before the budget's token tripped; 0 for
          unbudgeted runs (skipped faults count against [coverage]) *)
}

type report = {
  width : int;
  pattern_count : int;
  units : unit_report list;
}

val run :
  ?width:int ->
  ?pattern_count:int ->
  ?seed:int ->
  ?budget:Bistpath_resilience.Budget.t ->
  Bistpath_datapath.Datapath.t ->
  Bistpath_bist.Allocator.solution ->
  report
(** Defaults: width 8, 255 patterns (one full LFSR period at width 8),
    seed 1. Uses collapsed fault lists. Units reported untestable by the
    allocation are skipped. Multifunction ALUs are simulated per
    supported kind with the select line held; their coverage aggregates
    over kinds. Each unit's circuit is compiled once and every fault is
    graded through {!Sim.eval_chunk} into one reused net buffer; each
    unit runs in a [bist_sim] telemetry span (attribute [unit]). Under a
    [budget] ({!Bistpath_resilience.Budget}), faults not graded before
    the token tripped are counted per unit in [skipped]. *)

val grade :
  ?budget:Bistpath_resilience.Budget.t ->
  width:int ->
  Circuit.t ->
  operands:(int * int) array ->
  Fault.t list ->
  int * (bool * bool) option list
(** One unit's session: [grade ~width c ~operands faults] applies every
    operand pair (a, b) to the circuit's first [2 * width] inputs; when
    the circuit has more inputs (an ALU's one-hot select lines) the
    whole sequence is applied once per select line, in order. Returns
    the fault-free MISR signature and, per fault, [(detected, aliased)]
    — detected if some pattern changes some output, aliased if it was
    detected yet its MISR signature equals the fault-free one — or
    [None] if the budget tripped before the fault was graded. *)

val overall_coverage : report -> float
(** Fault-weighted mean coverage across units. *)

val pp : Format.formatter -> report -> unit
