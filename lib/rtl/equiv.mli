(** Structural and functional equivalence of emitted RTL against the
    in-memory data path.

    Closes the emission loop: {!Verilog.emit} output is parsed back
    ({!Parser}), elaborated, and evaluated into a canonical
    {!Netlist.t} — one cell per register instance, with every
    combinational cone partially evaluated per (test context, control
    step) into a name-free expression DAG over the ports and register
    outputs, its nodes hash-consed in a store the reference netlist
    shares. A net is evaluated once per distinct value of what it reads
    of the slot (step, test_mode, test_session), except on or behind a
    combinational loop, where it is evaluated per slot. The reference
    netlist is built directly from the
    {!Bistpath_datapath.Datapath.t} and its control table
    ({!Netlist.of_datapath}), and the two are matched name-insensitively
    by {!Netlist.differences}: anchored on the port interface,
    registers paired by one Weisfeiler–Leman colour refinement over the
    disjoint union of both netlists, run until a round gains no class
    on the union (per colour, the copies beyond the other side's count
    are unmatched), with commutative operator inputs taken as multisets
    so benign operand reordering never false-alarms. A random-vector simulation
    cross-check then runs the elaborated netlist cycle by cycle against
    {!Bistpath_datapath.Interp} and reports the first distinguishing
    vector. Each check compiles one cycle machine and one staged
    interpreter and resets the machine per vector (registers, CBILBO
    signatures, step counter and every net, so no value carries from
    one vector into the next, not even around a combinational loop).

    Structural differences and simulation mismatches are reported as
    data, never exceptions; unparsable input surfaces the parser's
    accumulated diagnostics. Each verification records its latency in
    the [rtl.verify_ns] telemetry histogram, and its layers as the spans
    [rtl.equiv] (all of {!verify}) over [rtl.parse], [rtl.structural]
    and [rtl.functional] ({!parse_back}, {!structural}, {!functional}). *)

type mismatch = {
  vector : (string * int) list;  (** primary-input assignment *)
  output : string;  (** DFG output variable that disagrees *)
  expected : int;  (** in-memory model ({!Bistpath_datapath.Interp}) *)
  actual : int;  (** parsed-back RTL simulation *)
}

type report = {
  structural : string list;
      (** human-readable structural differences; empty = equivalent *)
  functional : mismatch option;
      (** first distinguishing vector; [None] = all vectors agree *)
  vectors_run : int;
}

(** {1 The parsed-back netlist}

    The one RTL model: an emitted text parsed and elaborated once, whose
    connectivity the check rules query, which {!verify} compares to the
    data path, and on which the BIST golden signatures are simulated. *)

type elab
(** A datapath module elaborated into its nets (every driver kept), unit
    instances, register cells and step counter, plus the elaboration
    problems (multiple drivers, malformed counter, unknown instances,
    no or several datapath modules ...). *)

type parsed = (elab, Bistpath_resilience.Diagnostic.t list) result

val primitive_names : string list
(** The register and unit modules elaboration treats as primitives,
    named by {!Verilog.reg_module} and {!Verilog.unit_module}: the
    modules {!Verilog.primitives} declares. *)

val parse_back : string -> parsed
(** [Error] carries the parser's diagnostics for unparsable text;
    elaboration itself is total. *)

type endpoint = { cell : string; width : int option }
(** One connection of a net: the instance, [assign@LINE], [always],
    [input] or [output], with the width it drives or reads the net at
    ([None] under an operator or in a select). *)

type net = {
  net : string;
  port : bool;
  declared : int option;  (** declared width *)
  drivers : endpoint list;
  readers : endpoint list;
}

val nets : elab -> net list
(** Every net some connection touches, sorted by name. *)

val comb_cycles : elab -> string list list
(** Combinational loops: the cyclic strongly connected components of the
    graph from each net to the nets its assign or unit instance reads
    (register cells break paths); each sorted, sorted. *)

val netlist : Netlist.store -> elab -> Netlist.t
(** The canonical netlist of a module, built into the store: what
    {!structural} and {!drift} compare. A net reads undriven at the
    back edge of a combinational loop, cut where the cells' ports, in
    order, first reach the loop in each slot. Meant for a module
    without elaboration problems. *)

val structural :
  ?width:int ->
  ?bist:Bistpath_bist.Allocator.solution ->
  ?sessions:Bistpath_bist.Session.t ->
  ?regw:(string * int) list ->
  elab ->
  Bistpath_datapath.Datapath.t ->
  string list
(** The {!report}'s [structural] field: differences from the reference
    netlist built from the data path ({!Netlist.of_datapath}), or the
    elaboration problems. *)

val functional :
  ?vectors:int ->
  ?width:int ->
  elab ->
  Bistpath_datapath.Datapath.t ->
  mismatch option * int
(** The {!report}'s [functional] and [vectors_run] fields; [(None, 0)]
    without vectors or on a module with elaboration problems. The
    vectors are drawn from a fixed seed (7) and compared against
    {!Bistpath_datapath.Interp.run}. *)

val simulate_vectors :
  elab ->
  Bistpath_datapath.Datapath.t ->
  width:int ->
  (string * int) list list ->
  (string * int) list list
(** The RTL half of {!functional}: for each vector (DFG input -> value,
    masked to [width] bits) a functional-mode run from reset, on one
    machine compiled for the call and reset per vector, returning
    each [pout_*] port's value sampled at its output's capture step, in
    the data path's output order. Expects a module without elaboration
    problems. *)

val test_signatures :
  ?faulty:string * (width:int -> int -> int -> int) ->
  elab ->
  session:int ->
  patterns:int ->
  (string * int) list
(** Self-test simulation: from reset, with [test_mode] 1, [test_session]
    [session] and every input pin low, clock [patterns] times under the
    register primitives' test semantics (LFSR generators, MISR
    compactors, feedback taps 0, 1, 3) and return each [sig_*] port's
    value. [faulty] replaces the named unit instance's function. Raises
    [Invalid_argument] on elaboration problems or an unknown instance. *)

val verify :
  ?vectors:int ->
  ?width:int ->
  ?bist:Bistpath_bist.Allocator.solution ->
  ?sessions:Bistpath_bist.Session.t ->
  ?regw:(string * int) list ->
  rtl:string ->
  Bistpath_datapath.Datapath.t ->
  (report, Bistpath_resilience.Diagnostic.t list) result
(** {!parse_back}, {!structural} and {!functional} in one call: parse
    [rtl] (expected: {!Verilog.primitives} + {!Verilog.emit} output,
    but any text is safe) and compare it against [dp] emitted
    with the same [width]/[bist]/[sessions]/[regw] configuration
    ([regw] mirrors {!Verilog.emit}'s narrowed register widths so the
    reference register cells carry the same [WIDTH] parameters the
    narrowed RTL declares). [Error]
    means the input was unparsable (accumulated diagnostics);
    elaboration problems in parsable input are reported as structural
    differences instead. [vectors] (default 16) random input vectors
    drive the simulation cross-check; 0 skips it ([functional] is
    [None]). *)

(** {1 The verdict text}

    The one rendering of a verification result. Every front end — the
    [check] rules, [synth verify], [synth rtl --verify], serve's
    [verify] job and the chaos harness — prints these sentences, only
    prefixed or wrapped. *)

type finding = { rule : string;  (** [RTL005] or [EQ002] *) message : string }

val findings :
  ?unparsable:Bistpath_resilience.Diagnostic.t list ->
  ?structural:string list ->
  ?functional:mismatch ->
  unit ->
  finding list
(** In this order: [RTL005 emitted RTL is unparsable: <diagnostic>] per
    parser diagnostic, [RTL005 parse-back mismatch: <difference>] per
    structural difference, and [EQ002 parsed RTL disagrees with the
    interpreter on output o (expected e, got a) for vector x=1, y=2]
    for the first distinguishing vector. *)

val verdict : (report, Bistpath_resilience.Diagnostic.t list) result -> finding list
(** {!findings} of a {!verify} result; [[]] means equivalent. *)

val line : finding -> string
(** ["<rule> <message>"], the line serve's [verify] job records. *)

val drift :
  golden:string -> current:string -> (string list, Bistpath_resilience.Diagnostic.t list) result
(** Structural (not byte) comparison of two emitted RTL artifacts: the
    datapath modules are elaborated and matched exactly as in
    {!verify}, and every support (primitive) module is compared by
    location-stripped AST so formatting and comment churn never
    false-alarms while a semantic change always does. [Ok []] means no
    drift; [Error] means one side failed to parse (diagnostics carry
    the [golden:]/[current:] file tag). *)
