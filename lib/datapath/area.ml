module Massign = Bistpath_dfg.Massign
module Op = Bistpath_dfg.Op
module Listx = Bistpath_util.Listx

type model = {
  register_per_bit : int;
  tpg_delta_per_bit : int;
  sa_delta_per_bit : int;
  bilbo_delta_per_bit : int;
  cbilbo_delta_per_bit : int;
  mux2_per_bit : int;
  add_per_bit : int;
  sub_per_bit : int;
  logic_per_bit : int;
  less_per_bit : int;
  mul_per_bit_sq : int;
  div_per_bit_sq : int;
  alu_base_per_bit : int;
  alu_per_kind_per_bit : int;
}

let default =
  {
    register_per_bit = 7;
    tpg_delta_per_bit = 3;
    sa_delta_per_bit = 4;
    bilbo_delta_per_bit = 5;
    cbilbo_delta_per_bit = 7;
    mux2_per_bit = 3;
    add_per_bit = 5;
    sub_per_bit = 6;
    logic_per_bit = 1;
    less_per_bit = 4;
    mul_per_bit_sq = 6;
    div_per_bit_sq = 8;
    alu_base_per_bit = 8;
    alu_per_kind_per_bit = 3;
  }

let register_gates m ~width = m.register_per_bit * width

let kind_gates m ~width = function
  | Op.Add -> m.add_per_bit * width
  | Op.Sub -> m.sub_per_bit * width
  | Op.And | Op.Or | Op.Xor -> m.logic_per_bit * width
  | Op.Less -> m.less_per_bit * width
  | Op.Mul -> m.mul_per_bit_sq * width * width
  | Op.Div -> m.div_per_bit_sq * width * width

let unit_gates m ~width (u : Massign.hw) =
  match u.kinds with
  | [] -> 0
  | [ k ] -> kind_gates m ~width k
  | kinds ->
    (m.alu_base_per_bit + (m.alu_per_kind_per_bit * List.length kinds)) * width

let functional_gates m ~width (dp : Datapath.t) =
  let regs = List.length dp.regs * register_gates m ~width in
  let units =
    Listx.sum_by (unit_gates m ~width) dp.massign.Massign.units
  in
  let muxes = m.mux2_per_bit * width * Datapath.mux_input_total dp in
  regs + units + muxes

type breakdown = {
  registers : int;
  dedicated_registers : int;
  units : int;
  muxes : int;
  total : int;
}

let breakdown m ~width (dp : Datapath.t) =
  let count p = List.length (List.filter p dp.regs) in
  let registers = count (fun r -> not r.Datapath.dedicated) * register_gates m ~width in
  let dedicated_registers = count (fun r -> r.Datapath.dedicated) * register_gates m ~width in
  let units = Listx.sum_by (unit_gates m ~width) dp.massign.Massign.units in
  let muxes = m.mux2_per_bit * width * Datapath.mux_input_total dp in
  { registers; dedicated_registers; units; muxes;
    total = registers + dedicated_registers + units + muxes }

let pp_breakdown ppf b =
  Format.fprintf ppf
    "registers %d + dedicated %d + units %d + muxes %d = %d gates"
    b.registers b.dedicated_registers b.units b.muxes b.total
