(** Fixpoint solvers over the scheduled DFG and the synthesized
    controller, and the width-narrowing plan they justify.

    Two cooperating analyses:

    - {!solve_dfg} runs the value domain over the data-flow graph in
      schedule order, feeding loop write-backs (the policy's carried
      pairs) around until a fixed point, with widening after a few
      join rounds. This is the flow-{e insensitive} per-variable view:
      one abstract value per DFG variable, plus per-operation wrap /
      division-by-zero verdicts (rules ABS001, ABS002, ABS005).
    - {!solve_control} runs the product of the abstract step counter
      (init 0, increment, saturation at [T+1]) with per-register value
      states through the control table, latching exactly what the
      hardware latches. This is the flow-{e sensitive} per-step view:
      it knows what each register holds {e when}, which multiplexer
      legs can ever be selected, and which reads happen before the
      first write (rules ABS003, ABS004, ABS006) — and it is the
      ground truth for {!narrow_plan}.

    Both solvers fire the [absint.fixpoint] injection site on entry
    (a shot raises {!Bistpath_resilience.Inject.Injected}, which the
    check runner degrades to a per-rule CHK000 finding and `synth
    analyze` degrades to exit 3), bump [absint.solves] /
    [absint.iterations] / [absint.widenings], and record wall time in
    the [absint.solve_ns] histogram. *)

type op_facts = {
  op : Bistpath_dfg.Op.t;
  left_v : Interval.t;
  right_v : Interval.t;
  out_v : Interval.t;
  overflow : Interval.tri;
  div_by_zero : Interval.tri;
}

type dfg_result = {
  env : (string * Interval.t) list;  (** every DFG variable, sorted *)
  op_facts : op_facts list;  (** in DFG op order *)
  iterations : int;
  widened : bool;
}

val solve_dfg :
  ?assumes:(string * (int * int)) list ->
  width:int ->
  policy:Bistpath_dfg.Policy.t ->
  Bistpath_dfg.Dfg.t ->
  dfg_result
(** [assumes] narrows named primary inputs to [\[lo, hi\]]; all other
    inputs are full-range. Carried pairs [(result, input)] are joined
    back into the input between passes (widened once the chain keeps
    growing), so loop write-back kernels converge. *)

type activation = {
  step : int;
  mid : string;
  opid : string;
  a_left : Interval.t;  (** left-port register value when the unit ran *)
  a_right : Interval.t;
  a_out : Interval.t;
  a_overflow : Interval.tri;
  a_div_by_zero : Interval.tri;
}

type reg_facts = {
  rid : string;
  latched : Interval.t option;  (** join of every value ever latched;
                                    [None] if the register never latches *)
  write_steps : int list;
  dead_writers : int list;  (** writer-mux legs (indexes into the
                                register's writer list) no reachable
                                control step ever selects *)
}

type port_leg = { leg_mid : string; side : [ `L | `R ]; leg_index : int; source : string }

type control_result = {
  horizon : int;  (** T: the step counter counts 0..T+1 then saturates *)
  unreachable : int list;  (** control-table indexes outside [0, T+1] *)
  activations : activation list;
  regs : reg_facts list;
  dead_port_legs : port_leg list;  (** port-mux legs never selected *)
  uninit_reads : (int * string * string) list;
      (** (step, opid, rid): a unit read [rid] before its first write —
          the register still holds the reset interval {0} *)
}

val solve_control :
  width:int -> Bistpath_datapath.Datapath.t -> Bistpath_datapath.Control.t -> control_result
(** Over full-range inputs: a register a pin loads holds any word, so
    the result is sound for every vector, as {!narrow_plan} needs. *)

(** {1 Width narrowing} *)

type component = {
  name : string;
  comp : [ `Register | `Unit ];
  full_bits : int;  (** uniform emission width *)
  narrow_bits : int;  (** inferred sufficient width, [<= full_bits] *)
  value : Interval.t;  (** the witness range the narrow width covers *)
}

type plan = {
  plan_width : int;
  regw : (string * int) list;  (** registers strictly narrower than full *)
  unitw : (string * int) list;  (** units strictly narrower than full *)
  components : component list;  (** every register and active unit *)
  saved_bits : int;  (** register bits + 3x unit bits (two ports and
                         the result cone) removed by the plan *)
  total_bits : int;  (** same metric for the uniform-width design *)
}

val plan_of_control : width:int -> Bistpath_datapath.Datapath.t -> control_result -> plan
(** {!narrow_plan} from an existing {!solve_control} result. *)

val narrow_plan :
  width:int ->
  Bistpath_datapath.Datapath.t ->
  Bistpath_datapath.Control.t ->
  plan
(** Sound width assignment derived from {!solve_control}: a register's
    width covers everything it ever latches (registers fed by primary
    input pins stay full — pins are unconstrained); a unit's width
    covers every operand and result it ever sees {e and} provably
    cannot wrap at the narrow width (operations that may wrap, and
    divisions whose divisor may be zero, pin their unit to full width
    because the mod-[2^w] reduction and the all-ones div-by-zero word
    are width-dependent). [Less] units never narrow below 2 bits (the
    1-bit primitive would need a zero-width pad). *)

val saved_percent : plan -> float
(** [100 * saved_bits / total_bits] (0 when [total_bits] is 0). *)
