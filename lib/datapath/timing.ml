module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Dfg = Bistpath_dfg.Dfg

let kind_levels ~width = function
  | Op.Add -> 2 * width
  | Op.Sub -> (2 * width) + 1
  | Op.Less -> 3 * width
  | Op.And | Op.Or | Op.Xor -> 1
  | Op.Mul -> 4 * width
  | Op.Div -> 6 * width

let unit_levels ~width (u : Massign.hw) =
  match u.kinds with
  | [] -> 0
  | [ k ] -> kind_levels ~width k
  | kinds ->
    2 + List.fold_left (fun acc k -> max acc (kind_levels ~width k)) 0 kinds

let mux_levels ~inputs =
  if inputs <= 1 then 0
  else
    let rec go k levels = if k >= inputs then levels else go (k * 2) (levels + 1) in
    go 1 0

let clock_levels ~width (dp : Datapath.t) =
  let unit_paths =
    List.filter_map
      (fun (u : Massign.hw) ->
        let l, r = Datapath.unit_port_sources dp u.mid in
        if l = [] && r = [] then None
        else
          Some
            (max (mux_levels ~inputs:(List.length l)) (mux_levels ~inputs:(List.length r))
            + unit_levels ~width u))
      dp.Datapath.massign.Massign.units
  in
  let reg_paths =
    List.map (fun (_, ws) -> mux_levels ~inputs:(List.length ws)) dp.Datapath.reg_writers
  in
  (* unit path already lands at a register input mux; combine the
     slowest unit with the deepest destination mux conservatively *)
  let deepest_reg_mux = List.fold_left max 0 reg_paths in
  List.fold_left max 1 (List.map (fun p -> p + deepest_reg_mux) unit_paths)

let schedule_latency (dp : Datapath.t) = Dfg.num_csteps dp.Datapath.dfg + 1

type test_time = {
  sessions : int;
  patterns_per_session : int;
  clock : int;
  total_cycles : int;
}

let test_time ?patterns ~width dp ~sessions =
  let patterns_per_session =
    match patterns with Some p -> p | None -> (1 lsl width) - 1
  in
  {
    sessions;
    patterns_per_session;
    clock = clock_levels ~width dp;
    total_cycles = sessions * patterns_per_session;
  }

let pp_test_time ppf t =
  Format.fprintf ppf "%d session%s x %d patterns = %d cycles (clock ~%d gate levels)"
    t.sessions
    (if t.sessions = 1 then "" else "s")
    t.patterns_per_session t.total_cycles t.clock
