(** Cycle-accurate interpretation of a synthesized data path.

    Executes the control table step by step over the register file:
    during a step every active unit reads its selected registers and
    computes; at the step's end the selected registers latch. Each
    primary output is captured from its register, never from a pin,
    right after the step that latches it ({!Control.latch_step}).

    This is the repository's strongest functional check: for every
    register assignment and interconnect choice, the interpreted data
    path must agree with the behavioural DFG evaluation
    ({!Bistpath_dfg.Eval}). *)

type trace_entry = {
  step : int;
  register_file : (string * int) list;  (** after the step's latches *)
}

val run :
  ?trace:bool ->
  Datapath.t ->
  width:int ->
  inputs:(string * int) list ->
  (string * int) list * trace_entry list
(** Returns the primary outputs (sorted by name) and, with [~trace:true],
    the register file after every step. Raises [Invalid_argument] on
    missing inputs (via {!Bistpath_dfg.Eval}-compatible checking).

    Partial application stages the run: [run dp ~width] builds the
    control table once and resolves every step's routes, operation
    kinds and register and unit indices to arrays; the returned
    [~inputs] function only executes them, so one staged closure serves
    any number of input sets (the RTL cross-check reuses one per
    check). Input validation and its [Invalid_argument] messages belong
    to the [~inputs] call; a malformed data path raises at staging. *)

val equivalent_to_dfg : Datapath.t -> width:int -> inputs:(string * int) list -> bool
(** Do the interpreted data path and the behavioural evaluation agree on
    every primary output? Staged like {!run}. *)

val run_iterations :
  Datapath.t ->
  policy:Bistpath_dfg.Policy.t ->
  width:int ->
  iterations:int ->
  inputs:(string * int) list ->
  (string * int) list list
(** Execute the loop body repeatedly: carried registers (e.g. x1 -> x)
    keep their written-back values between iterations, so iteration n+1
    reads iteration n's results — the hardware loop the Paulin
    benchmark's data path implements. Non-carried inputs are re-applied
    every iteration. Returns the primary outputs of each iteration.
    Raises [Invalid_argument] if [iterations < 1]. *)
