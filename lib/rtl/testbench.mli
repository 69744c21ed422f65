(** Self-checking Verilog testbench generation.

    The testbench drives the emitted datapath module's pins with given
    input vectors, waits the schedule out, and compares each primary
    output against the value computed by the behavioural DFG evaluator —
    so [primitives ^ emit dp ^ generate dp vectors] is a complete,
    simulator-ready compilation unit whose expected values were derived
    by the same semantics the cycle-accurate interpreter validates. *)

val generate :
  ?width:int ->
  Bistpath_datapath.Datapath.t ->
  vectors:(string * int) list list ->
  string
(** Module [<design>_datapath_tb], one test per vector set (a full
    assignment of the DFG's used inputs). Each output is checked right after the step that latches
    it ({!Bistpath_datapath.Control.latch_step}). Raises
    [Invalid_argument] on incomplete vectors (via {!Bistpath_dfg.Eval}). *)

val random_vectors :
  Bistpath_util.Prng.t ->
  Bistpath_datapath.Datapath.t ->
  width:int ->
  count:int ->
  (string * int) list list
(** Uniform random assignments for the datapath's used inputs. *)
