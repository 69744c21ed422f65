(** RALLOC-like baseline (Avra, ISCAS '91): register allocation that
    minimizes the number of self-adjacent registers, under the classical
    BILBO methodology where every register taking part in testing becomes
    a BILBO and every self-adjacent register a CBILBO. The paper's Table
    III compares against it on the Paulin benchmark. *)

type result = {
  regalloc : Bistpath_datapath.Regalloc.t;
  datapath : Bistpath_datapath.Datapath.t;
  self_adjacent : string list;
  styles : (string * Bistpath_bist.Resource.style) list;
  delta_gates : int;
}

val allocate :
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  Bistpath_datapath.Regalloc.t
(** The allocation step alone: left-edge order, self-adjacency-creating
    merges avoided, fresh register opened when no safe merge exists.
    Also used by the SYNTEST-like baseline, whose template imposes the
    same constraint. *)

val run :
  ?width:int ->
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  result
(** Left-edge order; a register that would become self-adjacent by
    absorbing the next variable is avoided, opening a new register if
    necessary (Avra trades registers for testability — the opposite
    policy of the paper's Section III.B). Then every register feeding or
    fed by a unit becomes a BILBO; self-adjacent ones become CBILBOs. *)

val style_counts : result -> (Bistpath_bist.Resource.style * int) list
