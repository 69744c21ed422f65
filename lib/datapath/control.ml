module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Lifetime = Bistpath_dfg.Lifetime
module Listx = Bistpath_util.Listx

type write = {
  rid : string;
  source_index : int;
  variable : string;
}

type unit_op = {
  mid : string;
  opid : string;
  l_select : int;
  r_select : int;
  f_select : int;
}

type step = {
  index : int;
  ops : unit_op list;
  writes : write list;
}

type t = { steps : step list }

let index_of_exn what x l =
  match Listx.index_of (fun y -> y = x) l with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Control.build: %s not found" what)

let latch_step dfg v = (Lifetime.span dfg v).Bistpath_graphs.Interval.birth

let build (dp : Datapath.t) =
  let dfg = dp.Datapath.dfg in
  let num_steps = Dfg.num_csteps dfg in
  let writer_index rid src =
    let writers = List.assoc rid dp.Datapath.reg_writers in
    index_of_exn (Printf.sprintf "writer of %s" rid) src writers
  in
  (* computation and result latching per scheduled operation *)
  let op_events =
    List.map
      (fun (rt : Datapath.route) ->
        let op =
          match Dfg.op_by_id dfg rt.opid with
          | Some op -> op
          | None -> assert false
        in
        let u = Massign.unit_of_op dp.Datapath.massign rt.opid in
        let l_sources, r_sources = Datapath.unit_port_sources dp u.Massign.mid in
        let cstep = Dfg.cstep dfg rt.opid in
        let uop =
          {
            mid = u.Massign.mid;
            opid = rt.opid;
            l_select = index_of_exn "left source" rt.l_reg l_sources;
            r_select = index_of_exn "right source" rt.r_reg r_sources;
            f_select = index_of_exn "function" op.Op.kind u.Massign.kinds;
          }
        in
        let write =
          {
            rid = rt.out_reg;
            source_index = writer_index rt.out_reg (Datapath.From_unit u.Massign.mid);
            variable = op.Op.out;
          }
        in
        (cstep, uop, write))
      dp.Datapath.routes
  in
  (* input loads: latch each stored primary input at its latch step *)
  let used_inputs = Dfg.used_inputs dfg in
  let load_events =
    List.concat_map
      (fun (r : Datapath.reg) ->
        List.filter_map
          (fun v ->
            if List.mem v used_inputs then
              Some
                ( latch_step dfg v,
                  {
                    rid = r.Datapath.rid;
                    source_index = writer_index r.Datapath.rid (Datapath.From_port v);
                    variable = v;
                  } )
            else None)
          r.Datapath.vars)
      dp.Datapath.regs
  in
  let steps =
    List.map
      (fun index ->
        let ops =
          List.filter_map (fun (c, uop, _) -> if c = index then Some uop else None) op_events
        in
        let writes =
          List.filter_map (fun (c, _, w) -> if c = index then Some w else None) op_events
          @ List.filter_map (fun (c, w) -> if c = index then Some w else None) load_events
        in
        (* a register latches at most once per step *)
        let rids = List.map (fun w -> w.rid) writes in
        (match
           List.find_opt (fun r -> List.length (List.filter (String.equal r) rids) > 1) rids
         with
        | Some rid ->
          invalid_arg
            (Printf.sprintf "Control.build: register %s written twice in step %d" rid index)
        | None -> ());
        { index; ops; writes })
      (Listx.range 0 (num_steps + 1))
  in
  { steps }

let write_schedule t rid =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun w -> if String.equal w.rid rid then Some (s.index, w.source_index) else None)
        s.writes)
    t.steps

let activity t mid =
  List.concat_map
    (fun s ->
      List.filter_map (fun o -> if String.equal o.mid mid then Some (s.index, o) else None) s.ops)
    t.steps

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      if s.ops <> [] || s.writes <> [] then begin
        Format.fprintf ppf "step %d:@," s.index;
        List.iter
          (fun o ->
            Format.fprintf ppf "  %s runs %s (L=%d R=%d F=%d)@," o.mid o.opid o.l_select
              o.r_select o.f_select)
          s.ops;
        List.iter
          (fun w ->
            Format.fprintf ppf "  %s <= source %d (%s)@," w.rid w.source_index w.variable)
          s.writes
      end)
    t.steps;
  Format.fprintf ppf "@]"
