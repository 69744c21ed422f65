module Dfg = Bistpath_dfg.Dfg
module Control = Bistpath_datapath.Control
module Equiv = Bistpath_rtl.Equiv
open Rule

let error = Bistpath_resilience.Diagnostic.Error
let warning = Bistpath_resilience.Diagnostic.Warning

let cells eps =
  List.map (fun (ep : Equiv.endpoint) -> ep.Equiv.cell) eps
  |> List.sort_uniq compare |> String.concat ", "

(* RTL001: combinational loop — a cycle of nets no register breaks. *)
let rtl001 ctx _ =
  match parsed_rtl ctx with
  | None -> []
  | Some e ->
      List.map
        (fun comp ->
          v "RTL001" error (List.hd comp) "combinational loop through %s"
            (String.concat " -> " comp))
        (Equiv.comb_cycles e)

(* RTL002: a net something reads but nothing drives. *)
let rtl002 _ facts =
  List.filter_map
    (fun (n : Equiv.net) ->
      if n.Equiv.drivers = [] && n.Equiv.readers <> [] then
        Some (v "RTL002" error n.Equiv.net "undriven net read by %s" (cells n.Equiv.readers))
      else None)
    (Lazy.force facts.nets)

(* RTL003: an internal net something drives but nothing reads (an unused
   port is interface, not a floating net). *)
let rtl003 _ facts =
  List.filter_map
    (fun (n : Equiv.net) ->
      if (not n.Equiv.port) && n.Equiv.drivers <> [] && n.Equiv.readers = [] then
        Some (v "RTL003" warning n.Equiv.net "floating net driven by %s" (cells n.Equiv.drivers))
      else None)
    (Lazy.force facts.nets)

(* RTL004: a net with more than one driver. *)
let rtl004 _ facts =
  List.filter_map
    (fun (n : Equiv.net) ->
      match n.Equiv.drivers with
      | _ :: _ :: _ as ds ->
          Some
            (v "RTL004" error n.Equiv.net "net driven by %d cells: %s" (List.length ds)
               (cells ds))
      | _ -> None)
    (Lazy.force facts.nets)

(* CTL001: the control FSM must have exactly the states 0..T, each
   reachable from its predecessor (the FSM is a linear counter, so
   contiguity is reachability). *)
let ctl001 ctx _ =
  match ctx.control with
  | None -> []
  | Some c ->
      let indices = List.map (fun (s : Control.step) -> s.Control.index) c.Control.steps in
      let expected = List.init (Dfg.num_csteps ctx.dfg + 1) (fun i -> i) in
      let missing = List.filter (fun i -> not (List.mem i indices)) expected in
      let extra = List.filter (fun i -> not (List.mem i expected)) indices in
      let dup =
        List.filter
          (fun i -> List.length (List.filter (( = ) i) indices) >= 2)
          (List.sort_uniq compare indices)
      in
      List.map
        (fun i ->
          v "CTL001" error (string_of_int i) "control step is missing: the FSM never reaches it")
        missing
      @ List.map
          (fun i ->
            v "CTL001" error (string_of_int i)
              "control step is outside the schedule (steps run 0..%d)" (Dfg.num_csteps ctx.dfg))
          extra
      @ List.map (fun i -> v "CTL001" error (string_of_int i) "control step appears twice") dup

(* CTL002: every select and enable index must address an existing source. *)
let ctl002 ctx _ =
  match ctx.control with
  | None -> []
  | Some c ->
      (* each unit's source lists, built once; the first unit of an id wins *)
      let table = Hashtbl.create 8 in
      List.iter
        (fun ((u : Bistpath_dfg.Massign.hw), rs) ->
          if not (Hashtbl.mem table u.mid) then
            Hashtbl.add table u.mid (u, port_sources rs `L, port_sources rs `R))
        (unit_routes ctx);
      let sources mid = Hashtbl.find_opt table mid in
      List.concat_map
        (fun (s : Control.step) ->
          let ops =
            List.concat_map
              (fun (uo : Control.unit_op) ->
                match sources uo.Control.mid with
                | None ->
                    [ v "CTL002" error uo.Control.mid
                        "step %d activates a unit with no routes" s.Control.index ]
                | Some (u, ls, rs) ->
                    let chk what sel n =
                      if sel < 0 || sel >= max 1 n then
                        [ v "CTL002" error uo.Control.mid
                            "step %d %s select %d is out of range (unit has %d sources)"
                            s.Control.index what sel n ]
                      else []
                    in
                    chk "left" uo.Control.l_select (List.length ls)
                    @ chk "right" uo.Control.r_select (List.length rs)
                    @ chk "function" uo.Control.f_select
                        (List.length u.Bistpath_dfg.Massign.kinds))
              s.Control.ops
          in
          let writes =
            List.concat_map
              (fun (w : Control.write) ->
                let n = List.length (writers ctx w.Control.rid) in
                if w.Control.source_index < 0 || w.Control.source_index >= max 1 n then
                  [ v "CTL002" error w.Control.rid
                      "step %d write source index %d is out of range (register has %d writers)"
                      s.Control.index w.Control.source_index n ]
                else [])
              s.Control.writes
          in
          ops @ writes)
        c.Control.steps

let rules =
  [
    { id = "RTL001"; severity = error; title = "combinational loop"; run = rtl001 };
    { id = "RTL002"; severity = error; title = "undriven net with readers"; run = rtl002 };
    { id = "RTL003"; severity = warning; title = "floating net"; run = rtl003 };
    { id = "RTL004"; severity = error; title = "multi-driven net"; run = rtl004 };
    { id = "CTL001"; severity = error; title = "control FSM has missing or phantom states"; run = ctl001 };
    { id = "CTL002"; severity = error; title = "control select or enable index out of range"; run = ctl002 };
  ]
