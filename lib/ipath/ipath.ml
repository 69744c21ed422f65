module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign

type side = L | R

let tpg_candidates dp mid side =
  let l, r = Datapath.unit_port_sources dp mid in
  match side with L -> l | R -> r

let sa_candidates dp mid =
  dp.Datapath.reg_writers
  |> List.filter_map (fun (rid, ws) ->
         if List.mem (Datapath.From_unit mid) ws then Some rid else None)
  |> List.sort compare

(* One-hop transparent sources: R -> U (transparent through some port,
   other port holdable) -> R' -> target port. *)
let tpg_candidates_transparent dp mid side =
  let simple = tpg_candidates dp mid side in
  let channels =
    dp.Datapath.massign.Massign.units
    |> List.filter (fun (u : Massign.hw) -> not (String.equal u.mid mid))
    |> List.filter (fun (u : Massign.hw) ->
           Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
  in
  let found = Hashtbl.create 8 in
  List.iter
    (fun (u : Massign.hw) ->
      let l_sources, r_sources = Datapath.unit_port_sources dp u.mid in
      let receivers = sa_candidates dp u.mid in
      let reaches_target = List.exists (fun r2 -> List.mem r2 simple) receivers in
      if reaches_target then
        List.iter
          (fun (through, through_sources, hold_sources) ->
            if Transparency.unit_passes u through && hold_sources <> [] then
              List.iter
                (fun reg ->
                  if (not (List.mem reg simple)) && not (Hashtbl.mem found reg) then
                    Hashtbl.replace found reg u.mid)
                through_sources)
          [ (`Left, l_sources, r_sources); (`Right, r_sources, l_sources) ])
    channels;
  Hashtbl.fold (fun reg via acc -> (reg, via) :: acc) found []
  |> List.sort compare

type embedding = {
  mid : string;
  l_tpg : string;
  r_tpg : string;
  sa : string;
  l_via : string option;
  r_via : string option;
}

let requires_cbilbo e = String.equal e.sa e.l_tpg || String.equal e.sa e.r_tpg

let embeddings ?(transparency = false) dp mid =
  let side_options side =
    let simple = List.map (fun r -> (r, None)) (tpg_candidates dp mid side) in
    if transparency then
      simple
      @ List.map (fun (r, via) -> (r, Some via)) (tpg_candidates_transparent dp mid side)
    else simple
  in
  let ls = side_options L in
  let rs = side_options R in
  let sas = sa_candidates dp mid in
  List.concat_map
    (fun (l, l_via) ->
      List.concat_map
        (fun (r, r_via) ->
          if String.equal l r then []
          else List.map (fun sa -> { mid; l_tpg = l; r_tpg = r; sa; l_via; r_via }) sas)
        rs)
    ls

let simple_ipaths dp =
  let unit_paths =
    List.concat_map
      (fun (u : Massign.hw) ->
        let l, r = Datapath.unit_port_sources dp u.mid in
        List.map (fun reg -> Printf.sprintf "%s -> %s.L" reg u.mid) l
        @ List.map (fun reg -> Printf.sprintf "%s -> %s.R" reg u.mid) r
        @ List.map (fun reg -> Printf.sprintf "%s -> %s" u.mid reg) (sa_candidates dp u.mid))
      dp.Datapath.massign.Massign.units
  in
  List.sort compare unit_paths
