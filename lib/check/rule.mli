(** Rule framework shared by the three analysis passes.

    A rule is a pure function from a {!ctx} — the complete artifact
    bundle of one synthesized design — and the {!facts} derived from it
    to a list of {!finding}s. The facts are derived per run
    ({!Check.run}) from the ctx that run is given, so a ctx corrupted by
    record update is what every fact sees. Rules never raise for
    corrupted artifacts (they report them); an actual crash is caught by
    the runner and degraded to a [CHK000] finding for that rule alone. *)

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
      (** [Control.build datapath], what the controller (CTL, ABS)
          rules audit, so a record update of it is what they alone
          see; [None] when [Control.build] rejected the datapath —
          every cause of that is covered by a DP rule. The reference
          netlist (RTL005) and the interpreter (EQ001, EQ002) build
          their own table from [datapath], so they see a record update
          of [datapath]. *)
  rtl : Bistpath_rtl.Equiv.parsed option Lazy.t;
      (** the emitted RTL parsed back, forced by the first rule that
          audits it; [None] when the data path cannot be emitted *)
}

(** The structures several rules audit through, each computed by the
    first rule that reads it and shared by the rest of the run. A
    derivation that raises raises again for each rule that reads it. *)
type facts = {
  spans : (string * Bistpath_graphs.Interval.span) list Lazy.t;
      (** allocatable variables with their lifetimes, sorted *)
  span_table : (string, Bistpath_graphs.Interval.span) Hashtbl.t Lazy.t;
      (** [spans] by variable, for lookups *)
  conflicts : (Bistpath_graphs.Ugraph.t * Bistpath_dfg.Lifetime.indexing) Lazy.t;
  sharing : Bistpath_core.Sharing.ctx Lazy.t;
  nets : Bistpath_rtl.Equiv.net list Lazy.t;  (** [[]] without a parsed netlist *)
  ranges : Bistpath_absint.Absint.dfg_result Lazy.t;  (** under [ctx.assumes] *)
  control_ranges : Bistpath_absint.Absint.control_result option Lazy.t;
      (** over full-range inputs (see {!Bistpath_absint.Absint.solve_control});
          [None] without a control table *)
  unit_embeddings : string -> Bistpath_ipath.Ipath.row;
      (** per unit id, its row of the embedding table under
          [ctx.transparency], built once per run; rules ask
          {!Bistpath_ipath.Ipath.embeddable} and
          {!Bistpath_ipath.Ipath.cbilbo_unavoidable} of it *)
  plain_embeddings : string -> Bistpath_ipath.Ipath.row;
      (** per unit id, over plain I-paths (no transparency): what
          Lemma 1/2 predicts from. The same function as
          [unit_embeddings] when [ctx.transparency] is off. *)
}

val derive : ctx -> facts
(** The facts of one ctx, none computed yet. *)

type t = {
  id : string;
  title : string;
  severity : severity;  (** worst severity the rule can report *)
  run : ctx -> facts -> finding list;
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
