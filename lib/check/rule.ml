module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Policy = Bistpath_dfg.Policy
module Massign = Bistpath_dfg.Massign
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Lifetime = Bistpath_dfg.Lifetime
module Absint = Bistpath_absint.Absint

type severity = Bistpath_resilience.Diagnostic.severity

type finding = { rule : string; severity : severity; subject : string; detail : string }

type ctx = {
  design : string;
  width : int;
  transparency : bool;
  vectors : int;
  assumes : (string * (int * int)) list;
  dfg : Dfg.t;
  massign : Massign.t;
  policy : Policy.t;
  regalloc : Regalloc.t;
  datapath : Datapath.t;
  bist : Bistpath_bist.Allocator.solution option;
  sessions : Bistpath_bist.Session.t option;
  order : string list option;
  control : Bistpath_datapath.Control.t option;
  rtl : Bistpath_rtl.Equiv.parsed option Lazy.t;
}

type facts = {
  spans : (string * Bistpath_graphs.Interval.span) list Lazy.t;
  span_table : (string, Bistpath_graphs.Interval.span) Hashtbl.t Lazy.t;
  conflicts : (Bistpath_graphs.Ugraph.t * Lifetime.indexing) Lazy.t;
  sharing : Bistpath_core.Sharing.ctx Lazy.t;
  nets : Bistpath_rtl.Equiv.net list Lazy.t;
  ranges : Absint.dfg_result Lazy.t;
  control_ranges : Absint.control_result option Lazy.t;
  unit_embeddings : string -> Bistpath_ipath.Ipath.row;
  plain_embeddings : string -> Bistpath_ipath.Ipath.row;
}

type t = {
  id : string;
  title : string;
  severity : severity;
  run : ctx -> facts -> finding list;
}

let v rule severity subject fmt =
  Printf.ksprintf (fun detail -> { rule; severity; subject; detail }) fmt

let mid_of_op ctx opid = Dfg.Smap.find_opt opid ctx.massign.Massign.of_op

let expected_reg ctx v =
  match Regalloc.register_of ctx.regalloc v with
  | Some r -> Some r
  | None -> (
      match Policy.carried_into ctx.policy v with
      | Some target -> Some ("IN_" ^ target)
      | None -> if List.mem v ctx.dfg.Dfg.inputs then Some ("IN_" ^ v) else None)

let op_routes ctx (op : Op.t) =
  List.filter (fun (r : Datapath.route) -> r.Datapath.opid = op.Op.id) ctx.datapath.Datapath.routes

let unit_routes ctx =
  List.filter_map
    (fun (u : Massign.hw) ->
      let rs =
        List.filter
          (fun (r : Datapath.route) -> mid_of_op ctx r.Datapath.opid = Some u.Massign.mid)
          ctx.datapath.Datapath.routes
      in
      if rs = [] then None else Some (u, rs))
    ctx.massign.Massign.units

let port_sources rs side =
  List.sort_uniq compare
    (List.map
       (fun (r : Datapath.route) ->
         match side with `L -> r.Datapath.l_reg | `R -> r.Datapath.r_reg)
       rs)

let writers ctx rid =
  match List.assoc_opt rid ctx.datapath.Datapath.reg_writers with Some ws -> ws | None -> []

let stored_vars ctx rid =
  List.find_map
    (fun (r : Datapath.reg) -> if r.Datapath.rid = rid then Some r.Datapath.vars else None)
    ctx.datapath.Datapath.regs

let parsed_rtl ctx =
  match Lazy.force ctx.rtl with Some (Ok e) -> Some e | Some (Error _) | None -> None

let consumed_inputs ctx = List.sort_uniq compare (Dfg.used_inputs ctx.dfg)

(* A unit's embeddings as its row of the table, built once per ctx. *)
let embeddings_fact ctx ~transparency =
  let table = lazy (Bistpath_ipath.Ipath.table ~transparency ctx.datapath) in
  fun mid -> Bistpath_ipath.Ipath.row (Lazy.force table) mid

let derive ctx =
  let unit_embeddings = embeddings_fact ctx ~transparency:ctx.transparency in
  let spans = lazy (Lifetime.spans ~policy:ctx.policy ctx.dfg) in
  { spans;
    span_table =
      lazy
        (let table = Hashtbl.create 64 in
         List.iter (fun (v, s) -> Hashtbl.replace table v s) (Lazy.force spans);
         table);
    conflicts = lazy (Lifetime.conflict_graph_of_spans (Lazy.force spans));
    sharing = lazy (Bistpath_core.Sharing.make ctx.dfg ctx.massign);
    nets = lazy (match parsed_rtl ctx with Some e -> Bistpath_rtl.Equiv.nets e | None -> []);
    ranges =
      lazy (Absint.solve_dfg ~assumes:ctx.assumes ~width:ctx.width ~policy:ctx.policy ctx.dfg);
    control_ranges =
      lazy (Option.map (Absint.solve_control ~width:ctx.width ctx.datapath) ctx.control);
    unit_embeddings;
    plain_embeddings =
      (if ctx.transparency then embeddings_fact ctx ~transparency:false else unit_embeddings);
  }
