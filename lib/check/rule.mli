(** Rule framework shared by the three analysis passes.

    A rule is a pure function from a {!ctx} — the complete artifact
    bundle of one synthesized design — to a list of {!finding}s. Rules
    never raise for corrupted artifacts (they report them); an actual
    crash is caught by the runner ({!Check.run}) and degraded to a
    [CHK000] finding for that rule alone. *)

type severity = Bistpath_resilience.Diagnostic.severity

type finding = {
  rule : string;  (** rule id, e.g. "ALC001" *)
  severity : severity;
  subject : string;  (** what the finding is about: a register, net, unit... *)
  detail : string;
}

(** The artifact bundle under analysis. Tests corrupt individual fields
    with record update (e.g. [{ ctx with rtl = lazy (Some tampered) }]);
    everything here is data, so the rules see exactly the corruption and
    nothing recomputed behind their back. *)
type ctx = {
  design : string;
  width : int;
  transparency : bool;
  vectors : int;  (** random vectors for the dynamic-equivalence rule; 0 disables *)
  assumes : (string * (int * int)) list;
      (** asserted primary-input ranges for the abstract-interpretation
          rules ([--assume] on [synth analyze]); unlisted inputs are
          full-range *)
  dfg : Bistpath_dfg.Dfg.t;
  massign : Bistpath_dfg.Massign.t;
  policy : Bistpath_dfg.Policy.t;
  regalloc : Bistpath_datapath.Regalloc.t;
  datapath : Bistpath_datapath.Datapath.t;
  bist : Bistpath_bist.Allocator.solution option;
  sessions : Bistpath_bist.Session.t option;
  order : string list option;
      (** coloring order (allocation trace), when the producing flow
          recorded one; enables the reverse-PVES rule *)
  control : Bistpath_datapath.Control.t option;
      (** [None] when [Control.build] rejected the datapath — every
          cause of that is covered by a DP rule *)
  rtl : Bistpath_rtl.Equiv.parsed option Lazy.t;
      (** the emitted RTL parsed back, forced by the first rule that
          audits it; [None] when the data path cannot be emitted *)
}

type t = {
  id : string;
  title : string;
  severity : severity;  (** worst severity the rule can report *)
  run : ctx -> finding list;
}

val v : string -> severity -> string -> ('a, unit, string, finding) format4 -> 'a
(** [v rule severity subject fmt ...] builds a finding. *)

(** {1 Walker helpers} *)

val mid_of_op : ctx -> string -> string option
(** Unit an operation id is bound to ([None] instead of raising). *)

val expected_reg : ctx -> string -> string option
(** The register a variable should live in, re-deriving
    [Datapath.build]'s placement: the allocated register, else the
    carried-into dedicated register, else the input's own dedicated
    register. [None] for an unplaceable variable. *)

val op_routes : ctx -> Bistpath_dfg.Op.t -> Bistpath_datapath.Datapath.route list
(** Routes claiming this operation (exactly one in a well-formed
    datapath). *)

val unit_routes :
  ctx -> (Bistpath_dfg.Massign.hw * Bistpath_datapath.Datapath.route list) list
(** Units with at least one route, in module-assignment order. *)

val port_sources :
  Bistpath_datapath.Datapath.route list -> [ `L | `R ] -> string list
(** Distinct sorted registers feeding a port, re-derived from routes. *)

val writers : ctx -> string -> Bistpath_datapath.Datapath.wsrc list
(** A register's writer list ([[]] when the register is missing from
    [reg_writers] — itself a finding for other rules to make). *)

val stored_vars : ctx -> string -> string list option
(** Variables a register holds, [None] if no such register exists. *)

val parsed_rtl : ctx -> Bistpath_rtl.Equiv.elab option
(** The parsed-back netlist, [None] when there is none to audit (not
    emittable, or unparsable — RTL005 reports that). *)

val consumed_inputs : ctx -> string list
(** Primary inputs read by at least one operation, sorted. *)
