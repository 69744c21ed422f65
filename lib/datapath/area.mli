(** Gate-equivalent area model (DESIGN.md §3).

    The paper measured overhead in gate counts of a proprietary library;
    we use a self-consistent model: every figure is gates for a [width]-
    bit datapath. The same model is applied to the traditional and the
    testable flow, so the overhead *ratios* are comparable even though
    absolute percentages differ from the paper's library. *)

type model = {
  register_per_bit : int;  (** plain load-enabled register *)
  tpg_delta_per_bit : int;  (** extra gates to make a register an LFSR TPG *)
  sa_delta_per_bit : int;  (** extra gates for MISR signature analysis *)
  bilbo_delta_per_bit : int;  (** TPG+SA capable (different sessions) *)
  cbilbo_delta_per_bit : int;  (** concurrent BILBO: TPG and SA at once *)
  mux2_per_bit : int;  (** one 2:1 multiplexer slice *)
  add_per_bit : int;
  sub_per_bit : int;
  logic_per_bit : int;  (** and / or / xor *)
  less_per_bit : int;  (** magnitude comparator slice *)
  mul_per_bit_sq : int;  (** array multiplier: coefficient of width^2 *)
  div_per_bit_sq : int;  (** restoring divider: coefficient of width^2 *)
  alu_base_per_bit : int;  (** multifunction unit: base cost *)
  alu_per_kind_per_bit : int;  (** plus this per supported operation kind *)
}

val default : model
(** Values chosen so that a CBILBO costs about twice a plain register
    (the paper's stated ratio) and TPG < SA < BILBO < CBILBO. *)

val register_gates : model -> width:int -> int

val unit_gates : model -> width:int -> Bistpath_dfg.Massign.hw -> int

val functional_gates : model -> width:int -> Datapath.t -> int
(** Registers (including dedicated ones) + units + multiplexers, before
    any BIST modification: the overhead denominator. *)

type breakdown = {
  registers : int;
  dedicated_registers : int;
  units : int;
  muxes : int;
  total : int;
}
(** Itemized gate counts; [registers] covers allocated registers only,
    [total] = all four. *)

val breakdown : model -> width:int -> Datapath.t -> breakdown

val pp_breakdown : Format.formatter -> breakdown -> unit
