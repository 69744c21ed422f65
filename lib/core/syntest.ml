module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Interconnect = Bistpath_datapath.Interconnect
module Allocator = Bistpath_bist.Allocator
module Resource = Bistpath_bist.Resource

type result = {
  massign : Bistpath_dfg.Massign.t;
  regalloc : Regalloc.t;
  datapath : Datapath.t;
  bist : Allocator.solution;
  delta_gates : int;
}

let run ?(width = 8) dfg ~policy =
  let massign = Module_assign.alu_pack dfg in
  (* The template constraint coincides with RALLOC's avoidance rule but
     is strict: a self-adjacency-creating merge is never taken. The
     shared implementation already opens a fresh register in that case. *)
  let regalloc = Ralloc.allocate dfg massign ~policy in
  let datapath =
    Interconnect.optimize dfg massign regalloc ~policy
      ~objective:{ Interconnect.weight = (fun _ -> 0) }
  in
  let bist =
    Allocator.solve ~width ~forbidden:[ Resource.Bilbo; Resource.Cbilbo ] datapath
  in
  { massign; regalloc; datapath; bist; delta_gates = bist.Allocator.delta_gates }

let style_counts r = Allocator.style_counts r.bist
