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
    over kinds. Each unit is graded by {!grade}, once per distinct
    (kinds, left TPG, right TPG): units that agree on all three get the
    same circuit and operand streams, so a later one reuses the first
    one's report under its own id (counted in [bist_sim.units_shared];
    [bist_sim.faults] and [bist_sim.patterns] count graded units only).
    The whole call runs in a [gatelevel.coverage] telemetry span, each
    unit in a [bist_sim] span under it (attribute [unit]). Under a [budget]
    ({!Bistpath_resilience.Budget}), faults not graded before the token
    tripped are counted per unit in [skipped]. *)

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
    [None] if the budget tripped before the fault was graded.

    The fault-free circuit is evaluated once ({!Sim.reference}); each
    fault re-evaluates only its net's fanout cone, on the chunks where
    the fault can show ({!Sim.faulty_chunks}). No response is clocked
    into a MISR lane by lane. The MISR is linear ({!Misr}), so its
    signature from the zero state is an XOR of per-chunk lane masks
    (one per response bit and signature bit) ANDed with the response
    words. A fault aliased when the signature of its error words
    (faulty XOR fault-free responses) is 0. Detection still compares
    every output on the live lanes. The gates evaluated in faulty
    passes are counted in [bist_sim.gate_evals]. *)

val pp : Format.formatter -> report -> unit
