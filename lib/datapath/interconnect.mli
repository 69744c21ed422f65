(** Minimum interconnect assignment (Section IV).

    After register assignment, each commutative operation may present its
    operands to its unit's (left, right) ports in either orientation. The
    orientation choice partitions each unit's input registers into
    IR^L, IR^R and IR^LR (connected to both ports); Pangrle's minimum
    connectivity result says to minimize |IR^LR|, which here equals
    minimizing the total number of port-source connections. The paper
    further directs ties so that registers with high sharing degrees land
    in IR^LR (better TPG candidates). *)

type objective = {
  weight : string -> int;
      (** reward for a register connected to both ports of some unit; the
          testable flow passes the register sharing degree, the
          traditional flow passes [fun _ -> 0] *)
}

val optimize :
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  Regalloc.t ->
  policy:Bistpath_dfg.Policy.t ->
  objective:objective ->
  Datapath.t
(** Exhaustive orientation search per unit (units are independent;
    2^instances each, instances are small). Primary objective: fewest
    total connections; tie-break: largest summed [weight] over registers
    in IR^LR; final tie-break: no swaps preferred. *)
