(** Canonical netlists, their colour refinement and their comparison:
    the structural half of {!Equiv}.

    A canonical netlist has one cell per register instance, and every
    combinational cone partially evaluated per slot — a (test context,
    control step) pair — into a name-free expression DAG over the input
    ports and the register outputs. The DAG's nodes are hash-consed in
    one {!store} that both netlists of a comparison share, so a cell's
    per-slot connections are node ids and equal subtrees are one id.
    {!of_datapath} builds the reference netlist from the in-memory
    model; [Equiv] builds the one of a parsed-back module into the same
    store. {!differences} matches the two name-insensitively: anchored
    on the port interface, registers paired by one Weisfeiler–Leman
    colour refinement over their disjoint union ({!refine}), with the
    inputs of commutative operators taken as multisets. *)

(** {1 The node store} *)

type node = private
  | Pin of string  (** an input port *)
  | RegQ of int  (** [q] of the register cell with this union index *)
  | RegSig of int  (** [sig_out] of the register cell with this union index *)
  | Const of int
  | Undriven
  | Op of string * int array  (** operator over child node ids *)

type store
(** The hash-cons table: one id per distinct node, children before
    parents, plus the register cells handed out across the union. *)

val create : unit -> store

val node : store -> int -> node

val pin : store -> string -> int

val reg_q : store -> int -> int

val reg_sig : store -> int -> int

val const : store -> int -> int

val undriven : store -> int

val op : store -> string -> int array -> int
(** The normalizing constructor over normalized children: [lt] becomes
    [less], the emitter's zero-padded [concat] of a [less] is the
    [less], and its guarded division [cond(eq(r, 0), c, udiv(l, r))]
    is [div(l, r)]. The array must not be mutated afterwards. *)

val reserve : store -> int -> int
(** [reserve store n] hands out [n] union cell indices and returns the
    first. *)

(** {1 Slots} *)

type grid
(** The slots of a netlist: slot [i] is test mode [t], session context
    [k] and step [s] for [i = (t * sessions + k) * (steps + 2) + s]. *)

val grid : has_tm:bool -> sess_bits:int option -> steps:int -> grid

val contexts : grid -> (int * int) list
(** [(test_mode, test_session)] per context, in slot order. *)

val slot_count : grid -> int

val step_of : grid -> int -> int

val tm_of : grid -> int -> int

val session_of : grid -> int -> int

val reads_step : int
(** What a value reads of its slot, as a bit set: the step, *)

val reads_tm : int
(** the test mode, *)

val reads_session : int
(** the test session, *)

val reads_all : int
(** or all three. *)

val classes : grid -> int -> int
(** [classes g m]: how many slot classes a value reading [m] can tell
    apart. *)

val class_of : grid -> int -> int -> int
(** [class_of g m i]: the class, in [0 .. classes g m - 1], of slot [i]. *)

val per_slot : grid -> (int -> int * int) -> int array
(** Per-slot node ids: [f i] is slot [i]'s node and what it read of the
    slot, and every slot that agrees with [i] on that takes the node.
    [f] runs in slot order, on the slots no earlier call covered. *)

(** {1 Netlists} *)

type cell = {
  kind : string;  (** primitive module name *)
  cname : string;  (** representative name, messages only *)
  params : (string * int) list;  (** sorted *)
  conns : (string * int array) list;  (** input port -> per-slot node; sorted *)
}

type t = {
  nname : string;
  nin : (string * int) list;  (** input port -> width, sorted *)
  nout : (string * int) list;
  nsteps : int;
  ncontexts : (int * int) list;  (** (test_mode, test_session) *)
  base : int;  (** union index of the first cell *)
  cells : cell array;
  outdrv : (string * int array) list;  (** output port -> per-slot node *)
}

val op_name : Bistpath_dfg.Op.kind -> string
(** A unit kind's operator: [add], [sub], [mul], [div], [and], [or],
    [xor] or [less]. *)

val of_datapath :
  store ->
  ?width:int ->
  ?bist:Bistpath_bist.Allocator.solution ->
  ?sessions:Bistpath_bist.Session.t ->
  ?regw:(string * int) list ->
  Bistpath_datapath.Datapath.t ->
  t
(** The reference netlist of a data path emitted with the same
    configuration, mirroring the emitted multiplexer, function-select
    and session-steering chains. Each unit's output node is built once
    per slot class it reads, from the data path's
    {!Bistpath_datapath.Control.build} table. *)

val refine : store -> t -> t -> int array * int array
(** The two netlists' register colours at the fixed point of the
    refinement, by cell index: a colour numbers a signature (kind,
    parameters, ports and per-slot nodes under the last colours) in
    first-seen order over the first netlist's cells, then the
    second's. A round that gains no class on the union is the fixed
    point. Each round numbers the store's distinct nodes once; no round
    builds a string. Adds the rounds to [rtl.refine_rounds]. *)

val differences : store -> a_label:string -> b_label:string -> t -> t -> string list
(** Human-readable differences, at most 24 and a marker: interface
    (name, ports, step count, test contexts), then register count,
    registers without a counterpart of their colour, and the first
    differing slot of each output (nodes as text, registers as
    [q:<colour>]). [[]] = equivalent. Adds the cells' per-slot
    connections of both netlists to [rtl.slot_trees] and the store's
    size to [rtl.nodes]. *)
