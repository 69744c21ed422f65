module Datapath = Bistpath_datapath.Datapath
module Area = Bistpath_datapath.Area
module Massign = Bistpath_dfg.Massign

let s_graph (dp : Datapath.t) =
  List.concat_map
    (fun (u : Massign.hw) ->
      let ins = Datapath.input_registers dp u.mid in
      let outs = Datapath.output_registers dp u.mid in
      List.concat_map (fun r1 -> List.map (fun r2 -> (r1, r2)) outs) ins)
    dp.Datapath.massign.Massign.units
  |> List.sort_uniq compare

let has_cycle vertices edges removed =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      if (not (List.mem a removed)) && not (List.mem b removed) then
        Hashtbl.replace adj a (b :: (match Hashtbl.find_opt adj a with Some l -> l | None -> [])))
    edges;
  let state = Hashtbl.create 16 in
  (* 0 = in progress, 1 = done *)
  let exception Cycle in
  let rec dfs v =
    match Hashtbl.find_opt state v with
    | Some 0 -> raise Cycle
    | Some _ -> ()
    | None ->
      Hashtbl.replace state v 0;
      List.iter dfs (match Hashtbl.find_opt adj v with Some l -> l | None -> []);
      Hashtbl.replace state v 1
  in
  try
    List.iter (fun v -> if not (List.mem v removed) then dfs v) vertices;
    false
  with Cycle -> true

let mfvs (dp : Datapath.t) =
  let edges = s_graph dp in
  let vertices =
    List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  if not (has_cycle vertices edges []) then []
  else begin
    (* self-loop registers are unavoidably in every FVS *)
    let forced = List.filter_map (fun (a, b) -> if a = b then Some a else None) edges in
    let forced = List.sort_uniq compare forced in
    let candidates = List.filter (fun v -> not (List.mem v forced)) vertices in
    let rec combinations k = function
      | [] -> if k = 0 then [ [] ] else []
      | x :: rest ->
        if k = 0 then [ [] ]
        else
          List.map (fun c -> x :: c) (combinations (k - 1) rest) @ combinations k rest
    in
    let rec search k =
      if k > List.length candidates then forced @ candidates (* defensive *)
      else
        match
          List.find_opt
            (fun extra -> not (has_cycle vertices edges (forced @ extra)))
            (combinations k candidates)
        with
        | Some extra -> List.sort compare (forced @ extra)
        | None -> search (k + 1)
    in
    if has_cycle vertices edges forced then search 1 else List.sort compare forced
  end

let overhead_percent ?(width = 8) dp =
  let scan = mfvs dp in
  (* scan conversion: one mux slice per bit plus a shift path, about the
     cost of a 2:1 mux per bit *)
  let per_register = Area.default.Area.mux2_per_bit * width in
  let delta = List.length scan * per_register in
  let base = Area.functional_gates Area.default ~width dp in
  if base = 0 then 0.0 else 100.0 *. float_of_int delta /. float_of_int base
