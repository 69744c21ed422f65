(** Structural Verilog-subset emission of a synthesized data path.

    The module instantiates one register per datapath register (plain,
    or the BIST variant chosen by an allocation), one functional unit
    per module, and the multiplexers implied by the connectivity; a
    simple FSM-less controller interface (per-step select/enable values)
    is emitted as localparam tables so the output is self-contained and
    lintable. This is an RTL rendering for inspection and downstream
    tooling, not a verified synthesis target. *)

val emit :
  ?width:int ->
  ?bist:Bistpath_bist.Allocator.solution ->
  ?sessions:Bistpath_bist.Session.t ->
  ?regw:(string * int) list ->
  ?unitw:(string * int) list ->
  Bistpath_datapath.Datapath.t ->
  string
(** Verilog source text. [regw] / [unitw] narrow individual registers /
    functional units below the uniform [width] (the [synth rtl
    --narrow] plan from {!Bistpath_absint.Absint.narrow_plan}); ports
    stay at full width and every width boundary is adapted by Verilog's
    implicit zero-extension/truncation on assignment, so the netlist
    structure is unchanged. With [bist], registers are emitted as the
    allocated test-register variants (tpg_register, sa_register,
    bilbo_register, cbilbo_register), a [test_mode] port is added, and
    every signature-capable register's compactor is exported on a
    [sig_*] output. With [sessions] too, a [test_session] input is added
    and, in test mode, the multiplexers steer to the active session's
    BIST embeddings (port selects to the chosen TPGs, each SA register's
    input to the unit it compacts, BILBO compact/generate modes) —
    making the emitted architecture execute exactly the configurations
    the allocator chose. The per-step selects and enables come from
    the data path's {!Bistpath_datapath.Control.build} table, built
    here. Runs in an [rtl.emit] telemetry span. *)

val test_seed : width:int -> string -> int
(** Per-register non-zero LFSR reset seed (hash of the register name),
    baked into the emitted generator instances (their [SEED]
    parameter). *)

(** {1 The emitted test configuration}

    How {!emit} reads an allocation and names its primitives, shared
    with the reference netlist ({!Equiv}) and the self-test wrapper. *)

val style_of : Bistpath_bist.Allocator.solution option -> string -> Bistpath_bist.Resource.style
(** A register's test style; [Normal] without an allocation. *)

val simple_embedding :
  Bistpath_bist.Allocator.solution option -> string -> Bistpath_ipath.Ipath.embedding option
(** A unit's embedding if it has no transparent via — the only kind the
    test-mode multiplexer overrides steer. *)

val signature_registers : Bistpath_bist.Allocator.solution option -> string list
(** Registers with a [sig_*] port (SA, BILBO, CBILBO), allocation order. *)

val session_bits : int -> int
(** Width of the [test_session] port for a number of sessions. *)

val session_of : string list list -> string -> int option
(** The first session testing a unit. *)

val reg_module : Bistpath_bist.Resource.style -> string
(** The register primitive a style is emitted as ([dp_register],
    [tpg_register], ...): with {!unit_module}, the primitive vocabulary
    {!Equiv} elaborates. *)

val unit_module : Bistpath_dfg.Op.kind -> string
(** The unit primitive a single-function unit of this kind is emitted as
    ([dp_add], ...); multifunction units are emitted inline. *)

val sanitize : string -> string
(** Map arbitrary netlist names to Verilog identifiers: alphanumerics
    and underscores pass through, any other character becomes its
    [_&lt;hex&gt;] escape — so names that differ only in punctuation
    (["*1"] vs ["+1"]) stay distinct instead of colliding on the same
    wire. *)

val mangle : string -> string
(** [sanitize], then wrap in escaped-identifier syntax ([\name ],
    trailing space included) when the result is a reserved word or
    starts with a digit — i.e. the name as it may legally appear bare in
    emitted source. Prefixed uses ([q_<name>] etc.) only need
    [sanitize]. *)

val module_name : Bistpath_datapath.Datapath.t -> string
(** The emitted module's name, [<sanitized design name>_datapath],
    escaped if necessary — use this when instantiating the module. *)

val primitives : width:int -> string
(** Library of the register/unit/mux primitives the emitted module
    instantiates (behavioural Verilog), so [primitives ^ emit dp] is a
    complete compilation unit. *)

val source :
  width:int ->
  ?bist:Bistpath_bist.Allocator.solution ->
  ?sessions:Bistpath_bist.Session.t ->
  Bistpath_datapath.Datapath.t ->
  string
(** {!primitives} then {!emit}, each followed by a newline: the
    compilation unit [synth rtl] prints and [synth verify] parses back. *)
