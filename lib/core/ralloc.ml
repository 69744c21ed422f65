module Lifetime = Bistpath_dfg.Lifetime
module Massign = Bistpath_dfg.Massign
module Interval = Bistpath_graphs.Interval
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Area = Bistpath_datapath.Area
module Interconnect = Bistpath_datapath.Interconnect
module Resource = Bistpath_bist.Resource

type result = {
  regalloc : Regalloc.t;
  datapath : Datapath.t;
  self_adjacent : string list;
  styles : (string * Resource.style) list;
  delta_gates : int;
}

(* A register is self-adjacent when it holds both an operand and a result
   of the same unit: after binding, a path register -> unit -> register
   exists. *)
let self_adjacent_vars ctx vars =
  let ins, outs = Sharing.masks ctx vars in
  ins land outs <> 0

let allocate dfg massign ~policy =
  let ctx = Sharing.make dfg massign in
  let spans = Lifetime.spans ~policy dfg in
  let ordered =
    List.sort
      (fun (v1, s1) (v2, s2) ->
        compare
          (s1.Interval.birth, s1.Interval.death, v1)
          (s2.Interval.birth, s2.Interval.death, v2))
      spans
  in
  let classes : (string * string list) list ref = ref [] in
  let conflicts v vars =
    List.exists
      (fun w -> Interval.overlap (Lifetime.span dfg v) (Lifetime.span dfg w))
      vars
  in
  List.iter
    (fun (v, _) ->
      let nonconf = List.filter (fun (_, vars) -> not (conflicts v vars)) !classes in
      let safe =
        List.filter
          (fun (_, vars) ->
            self_adjacent_vars ctx vars || not (self_adjacent_vars ctx (v :: vars)))
          nonconf
      in
      match safe with
      | (rid, _) :: _ ->
        classes :=
          List.map
            (fun (r, vars) -> (r, if String.equal r rid then vars @ [ v ] else vars))
            !classes
      | [] ->
        let rid = Printf.sprintf "R%d" (List.length !classes + 1) in
        classes := !classes @ [ (rid, [ v ]) ])
    ordered;
  Regalloc.make !classes

let run ?(width = 8) dfg massign ~policy =
  let regalloc = allocate dfg massign ~policy in
  let datapath =
    Interconnect.optimize dfg massign regalloc ~policy
      ~objective:{ Interconnect.weight = (fun _ -> 0) }
  in
  let self_adjacent = Datapath.self_adjacent_registers datapath in
  let participates rid =
    List.exists
      (fun (u : Massign.hw) ->
        List.mem rid (Datapath.input_registers datapath u.mid)
        || List.mem rid (Datapath.output_registers datapath u.mid))
      datapath.Datapath.massign.Massign.units
  in
  let styles =
    List.map
      (fun (r : Datapath.reg) ->
        let style =
          if List.mem r.rid self_adjacent then Resource.Cbilbo
          else if participates r.rid then Resource.Bilbo
          else Resource.Normal
        in
        (r.rid, style))
      datapath.Datapath.regs
  in
  let delta_gates =
    Bistpath_util.Listx.sum_by
      (fun (_, s) -> Resource.delta_gates Area.default ~width s)
      styles
  in
  { regalloc; datapath; self_adjacent; styles; delta_gates }

let style_counts r =
  [ Resource.Cbilbo; Resource.Bilbo; Resource.Tpg; Resource.Sa ]
  |> List.filter_map (fun s ->
         match List.length (List.filter (fun (_, s') -> s' = s) r.styles) with
         | 0 -> None
         | n -> Some (s, n))
