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

(* One pass over the routes, indexing operations, units and port
   sources, then each event dropped into its step's bucket. Failures
   raise what the scan it replaced raised, in the same order: per route,
   the operation, its unit, any route with no unit (the port-source scan
   read them all), the step, the function, the writer; then the input
   loads; then, step by step, the first register latched twice. *)
let build (dp : Datapath.t) =
  let dfg = dp.Datapath.dfg in
  let massign = dp.Datapath.massign in
  let num_steps = Dfg.num_csteps dfg in
  let op_of = Hashtbl.create 64 in
  List.iter
    (fun (op : Op.t) -> if not (Hashtbl.mem op_of op.Op.id) then Hashtbl.add op_of op.Op.id op)
    dfg.Dfg.ops;
  let routes = Array.of_list dp.Datapath.routes in
  let unit_of =
    Array.map
      (fun (rt : Datapath.route) ->
        match Massign.unit_of_op massign rt.opid with
        | u -> Some u
        | exception Not_found -> None)
      routes
  in
  let all_bound = Array.for_all Option.is_some unit_of in
  (* per unit: each port's distinct sources, sorted, by register *)
  let port_sources = Hashtbl.create 16 in
  if all_bound then begin
    let srcs = Hashtbl.create 16 in
    Array.iteri
      (fun i (rt : Datapath.route) ->
        let mid = (Option.get unit_of.(i)).Massign.mid in
        let l, r = Option.value (Hashtbl.find_opt srcs mid) ~default:([], []) in
        Hashtbl.replace srcs mid (rt.l_reg :: l, rt.r_reg :: r))
      routes;
    let index regs =
      let tbl = Hashtbl.create 8 in
      List.iteri (fun i rid -> Hashtbl.replace tbl rid i) (List.sort_uniq compare regs);
      tbl
    in
    Hashtbl.iter (fun mid (l, r) -> Hashtbl.replace port_sources mid (index l, index r)) srcs
  end;
  let select what rid tbl =
    match Hashtbl.find_opt tbl rid with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Control.build: %s not found" what)
  in
  let writer_index rid src =
    match Listx.index_of (fun y -> y = src) (List.assoc rid dp.Datapath.reg_writers) with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Control.build: writer of %s not found" rid)
  in
  let ops_at = Array.make (num_steps + 1) [] in
  let writes_at = Array.make (num_steps + 1) [] in
  let loads_at = Array.make (num_steps + 1) [] in
  let at bucket c x = if c >= 0 && c <= num_steps then bucket.(c) <- x :: bucket.(c) in
  (* computation and result latching per scheduled operation *)
  Array.iteri
    (fun i (rt : Datapath.route) ->
      let op =
        match Hashtbl.find_opt op_of rt.opid with
        | Some op -> op
        | None -> assert false
      in
      let u = match unit_of.(i) with Some u -> u | None -> raise Not_found in
      if not all_bound then raise Not_found;
      let l_sources, r_sources = Hashtbl.find port_sources u.Massign.mid in
      let cstep = Dfg.cstep dfg rt.opid in
      let uop =
        {
          mid = u.Massign.mid;
          opid = rt.opid;
          l_select = select "left source" rt.l_reg l_sources;
          r_select = select "right source" rt.r_reg r_sources;
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
      at ops_at cstep uop;
      at writes_at cstep write)
    routes;
  (* input loads: latch each stored primary input at its latch step.
     That is [latch_step], read off one pass over the operations: the
     step of the first operation producing it, else one before its
     first read. *)
  let made = Hashtbl.create 64 and first_read = Hashtbl.create 64 in
  List.iter
    (fun (op : Op.t) ->
      let c = Dfg.cstep dfg op.Op.id in
      if not (Hashtbl.mem made op.Op.out) then Hashtbl.add made op.Op.out c;
      let read v =
        match Hashtbl.find_opt first_read v with
        | Some c' when c' <= c -> ()
        | _ -> Hashtbl.replace first_read v c
      in
      read op.Op.left;
      read op.Op.right)
    dfg.Dfg.ops;
  let latch = Hashtbl.create 16 in
  List.iter
    (fun v ->
      match (Hashtbl.find_opt made v, Hashtbl.find_opt first_read v) with
      | _, None -> ()
      | Some c, Some _ -> Hashtbl.replace latch v c
      | None, Some c -> Hashtbl.replace latch v (c - 1))
    dfg.Dfg.inputs;
  List.iter
    (fun (r : Datapath.reg) ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt latch v with
          | None -> ()
          | Some c ->
            at loads_at c
              {
                rid = r.Datapath.rid;
                source_index = writer_index r.Datapath.rid (Datapath.From_port v);
                variable = v;
              })
        r.Datapath.vars)
    dp.Datapath.regs;
  let steps =
    List.map
      (fun index ->
        let writes = List.rev_append writes_at.(index) (List.rev loads_at.(index)) in
        (* a register latches at most once per step *)
        let rids = List.map (fun w -> w.rid) writes in
        (match
           List.find_opt (fun r -> List.length (List.filter (String.equal r) rids) > 1) rids
         with
        | Some rid ->
          invalid_arg
            (Printf.sprintf "Control.build: register %s written twice in step %d" rid index)
        | None -> ());
        { index; ops = List.rev ops_at.(index); writes })
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
