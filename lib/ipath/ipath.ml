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

(* A unit that can channel patterns: its left and right port sources
   and its SA registers. *)
type channel = {
  hw : Massign.hw;
  l_sources : string list;
  r_sources : string list;
  receivers : string list;
}

(* Every unit with operations bound to it, as a channel. *)
let channels dp =
  dp.Datapath.massign.Massign.units
  |> List.filter (fun (u : Massign.hw) ->
         Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
  |> List.map (fun (u : Massign.hw) ->
         let l_sources, r_sources = Datapath.unit_port_sources dp u.mid in
         { hw = u; l_sources; r_sources; receivers = sa_candidates dp u.mid })

(* One-hop transparent sources of a port of [mid] whose simple sources
   are [simple]: R -> U (transparent through some port, other port
   holdable) -> R' -> target port. *)
let transparent_sources channels mid simple =
  let found = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let reaches_target = List.exists (fun r2 -> List.mem r2 simple) c.receivers in
      if (not (String.equal c.hw.mid mid)) && reaches_target then
        List.iter
          (fun (through, through_sources, hold_sources) ->
            if Transparency.unit_passes c.hw through && hold_sources <> [] then
              List.iter
                (fun reg ->
                  if (not (List.mem reg simple)) && not (Hashtbl.mem found reg) then
                    Hashtbl.replace found reg c.hw.mid)
                through_sources)
          [ (`Left, c.l_sources, c.r_sources); (`Right, c.r_sources, c.l_sources) ])
    channels;
  Hashtbl.fold (fun reg via acc -> (reg, via) :: acc) found []
  |> List.sort compare

let tpg_candidates_transparent dp mid side =
  transparent_sources (channels dp) mid (tpg_candidates dp mid side)

type embedding = {
  mid : string;
  l_tpg : string;
  r_tpg : string;
  sa : string;
  l_via : string option;
  r_via : string option;
}

let requires_cbilbo e = String.equal e.sa e.l_tpg || String.equal e.sa e.r_tpg

let registers dp =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (r : Datapath.reg) ->
      if Hashtbl.mem seen r.rid then None
      else begin
        Hashtbl.add seen r.rid ();
        Some r.rid
      end)
    dp.Datapath.regs
  |> Array.of_list

type row = {
  unit : string;
  left : int array;
  left_via : int array;
  right : int array;
  right_via : int array;
  sas : int array;
}

type table = { regs : string array; rows : row array }

let table ?(transparency = false) dp =
  let regs = registers dp in
  let number = Hashtbl.create (Array.length regs) in
  Array.iteri (fun i rid -> Hashtbl.replace number rid i) regs;
  let units = Array.of_list dp.Datapath.massign.Massign.units in
  let slot = Hashtbl.create (Array.length units) in
  Array.iteri
    (fun i (u : Massign.hw) -> if not (Hashtbl.mem slot u.mid) then Hashtbl.add slot u.mid i)
    units;
  let channels = if transparency then channels dp else [] in
  let numbers l = Array.of_list (List.map (Hashtbl.find number) l) in
  (* A port's sources in I-path order: the simple ones, then the
     transparent ones, each with its channel's row (-1: none). *)
  let port mid simple =
    let extra = if transparency then transparent_sources channels mid simple else [] in
    ( numbers (simple @ List.map fst extra),
      Array.of_list
        (List.map (fun _ -> -1) simple @ List.map (fun (_, via) -> Hashtbl.find slot via) extra) )
  in
  let rows =
    Array.map
      (fun (u : Massign.hw) ->
        let l, r = Datapath.unit_port_sources dp u.mid in
        let left, left_via = port u.mid l and right, right_via = port u.mid r in
        let sas = numbers (sa_candidates dp u.mid) in
        { unit = u.mid; left; left_via; right; right_via; sas })
      units
  in
  { regs; rows }

let row t mid =
  match Array.find_opt (fun row -> String.equal row.unit mid) t.rows with
  | Some row -> row
  | None ->
    { unit = mid; left = [||]; left_via = [||]; right = [||]; right_via = [||]; sas = [||] }

let has (regs : int array) reg = Array.exists (fun r -> r = reg) regs

(* Ports list each register once, so a pair (l, r) with l = r exists
   exactly once per register both ports list. *)
let embedding_count row =
  let common = Array.fold_left (fun k l -> if has row.right l then k + 1 else k) 0 row.left in
  Array.length row.sas * ((Array.length row.left * Array.length row.right) - common)

(* An SA register listed by the left port makes a CBILBO with every
   right source but itself, and symmetrically; l <> r, so never both. *)
let cbilbo_count row =
  let nl = Array.length row.left and nr = Array.length row.right in
  Array.fold_left
    (fun k sa ->
      let in_l = has row.left sa and in_r = has row.right sa in
      k
      + (if in_l then nr - Bool.to_int in_r else 0)
      + if in_r then nl - Bool.to_int in_l else 0)
    0 row.sas

let embeddable row = embedding_count row > 0
let cbilbo_unavoidable row = embeddable row && cbilbo_count row = embedding_count row

let embedding t row li ri si =
  let via v = if v < 0 then None else Some t.rows.(v).unit in
  { mid = row.unit; l_tpg = t.regs.(row.left.(li)); r_tpg = t.regs.(row.right.(ri));
    sa = t.regs.(row.sas.(si)); l_via = via row.left_via.(li); r_via = via row.right_via.(ri) }

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
