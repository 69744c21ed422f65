module Area = Bistpath_datapath.Area

type style = Normal | Tpg | Sa | Bilbo | Cbilbo

let style_label = function
  | Normal -> "none"
  | Tpg -> "TPG"
  | Sa -> "SA"
  | Bilbo -> "TPG/SA"
  | Cbilbo -> "CBILBO"

type role = Generates of string | Compacts of string

let style_of_roles roles =
  let gens = List.filter_map (function Generates m -> Some m | Compacts _ -> None) roles in
  let comps = List.filter_map (function Compacts m -> Some m | Generates _ -> None) roles in
  let concurrent = List.exists (fun m -> List.mem m comps) gens in
  if concurrent then Cbilbo
  else
    match (gens, comps) with
    | [], [] -> Normal
    | _ :: _, [] -> Tpg
    | [], _ :: _ -> Sa
    | _ :: _, _ :: _ -> Bilbo

let delta_gates (m : Area.model) ~width = function
  | Normal -> 0
  | Tpg -> m.tpg_delta_per_bit * width
  | Sa -> m.sa_delta_per_bit * width
  | Bilbo -> m.bilbo_delta_per_bit * width
  | Cbilbo -> m.cbilbo_delta_per_bit * width
