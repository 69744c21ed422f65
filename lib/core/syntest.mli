(** SYNTEST-like baseline (Papachristou / Harmanani): synthesis towards a
    self-testable template — multifunction ALUs, a register file with no
    self-loops, pattern generators at module inputs and a signature
    analyzer at module outputs, never mixing the two duties on one
    register (so no BILBOs or CBILBOs at all). *)

type result = {
  massign : Bistpath_dfg.Massign.t;  (** ALU-packed module allocation *)
  regalloc : Bistpath_datapath.Regalloc.t;
  datapath : Bistpath_datapath.Datapath.t;
  bist : Bistpath_bist.Allocator.solution;
  delta_gates : int;
}

val run :
  ?width:int ->
  Bistpath_dfg.Dfg.t ->
  policy:Bistpath_dfg.Policy.t ->
  result
(** ALU packing ({!Module_assign.alu_pack}) replaces the given module
    assignment; register allocation forbids self-adjacency outright
    (template constraint), opening extra registers when needed; BIST
    allocation runs with [Bilbo] and [Cbilbo] styles forbidden. *)

val style_counts : result -> (Bistpath_bist.Resource.style * int) list
