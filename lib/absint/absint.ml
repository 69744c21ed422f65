module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Policy = Bistpath_dfg.Policy
module Massign = Bistpath_dfg.Massign
module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Inject = Bistpath_resilience.Inject
module Telemetry = Bistpath_telemetry.Telemetry

type op_facts = {
  op : Op.t;
  left_v : Interval.t;
  right_v : Interval.t;
  out_v : Interval.t;
  overflow : Interval.tri;
  div_by_zero : Interval.tri;
}

type dfg_result = {
  env : (string * Interval.t) list;
  op_facts : op_facts list;
  iterations : int;
  widened : bool;
}

(* Joins keep ascending for at most this many passes before the carried
   write-backs are widened straight to their extremes. *)
let widen_after = 3

(* Hard backstop; widening makes every chain stabilize long before. *)
let max_passes = 64

let timed f =
  let t0 = if Telemetry.enabled () then Telemetry.now () else 0L in
  let r = f () in
  if Telemetry.enabled () then
    Telemetry.observe "absint.solve_ns" (Int64.to_int (Int64.sub (Telemetry.now ()) t0));
  Telemetry.incr "absint.solves";
  r

let input_value ~width assumes v =
  match List.assoc_opt v assumes with
  | Some (lo, hi) -> Interval.make ~width lo hi
  | None -> Interval.full ~width

let eval_op ~width env (op : Op.t) =
  let value v =
    match Hashtbl.find_opt env v with Some i -> i | None -> Interval.full ~width
  in
  if String.equal op.Op.left op.Op.right then
    Interval.transfer_same op.Op.kind ~width (value op.Op.left)
  else Interval.transfer op.Op.kind ~width (value op.Op.left) (value op.Op.right)

let solve_dfg ?(assumes = []) ~width ~policy (dfg : Dfg.t) =
  Inject.fire "absint.fixpoint";
  timed @@ fun () ->
  let env : (string, Interval.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace env v (input_value ~width assumes v))
    dfg.Dfg.inputs;
  (* schedule order: operands are normally produced in earlier steps, so
     the first pass already lands on the fixpoint for loop-free kernels *)
  let ops =
    List.stable_sort
      (fun (a : Op.t) (b : Op.t) ->
        compare (Dfg.cstep dfg a.Op.id) (Dfg.cstep dfg b.Op.id))
      dfg.Dfg.ops
  in
  let iterations = ref 0 and widenings = ref 0 in
  let rec fix pass =
    incr iterations;
    let changed = ref false in
    List.iter
      (fun (op : Op.t) ->
        let v = (eval_op ~width env op).Interval.value in
        match Hashtbl.find_opt env op.Op.out with
        | Some old when Interval.equal old v -> ()
        | _ ->
            Hashtbl.replace env op.Op.out v;
            changed := true)
      ops;
    List.iter
      (fun (res, inp) ->
        let rv =
          match Hashtbl.find_opt env res with
          | Some i -> i
          | None -> Interval.full ~width
        in
        let iv =
          match Hashtbl.find_opt env inp with
          | Some i -> i
          | None -> Interval.full ~width
        in
        let next =
          if pass >= widen_after then begin
            let w = Interval.widen ~width ~old:iv rv in
            if not (Interval.equal w iv) then incr widenings;
            w
          end
          else Interval.join ~width iv rv
        in
        if not (Interval.equal next iv) then begin
          Hashtbl.replace env inp next;
          changed := true
        end)
      policy.Policy.carried;
    if !changed && pass < max_passes then fix (pass + 1)
  in
  fix 1;
  Telemetry.incr ~by:!iterations "absint.iterations";
  Telemetry.incr ~by:!widenings "absint.widenings";
  let value v =
    match Hashtbl.find_opt env v with Some i -> i | None -> Interval.full ~width
  in
  let op_facts =
    List.map
      (fun (op : Op.t) ->
        let t = eval_op ~width env op in
        { op;
          left_v = value op.Op.left;
          right_v = value op.Op.right;
          out_v = value op.Op.out;
          overflow = t.Interval.overflow;
          div_by_zero = t.Interval.div_by_zero;
        })
      dfg.Dfg.ops
  in
  { env = List.map (fun v -> (v, value v)) (Dfg.variables dfg);
    op_facts;
    iterations = !iterations;
    widened = !widenings > 0;
  }

type activation = {
  step : int;
  mid : string;
  opid : string;
  a_left : Interval.t;
  a_right : Interval.t;
  a_out : Interval.t;
  a_overflow : Interval.tri;
  a_div_by_zero : Interval.tri;
}

type reg_facts = {
  rid : string;
  latched : Interval.t option;
  write_steps : int list;
  dead_writers : int list;
}

type port_leg = { leg_mid : string; side : [ `L | `R ]; leg_index : int; source : string }

type control_result = {
  horizon : int;
  unreachable : int list;
  activations : activation list;
  regs : reg_facts list;
  dead_port_legs : port_leg list;
  uninit_reads : (int * string * string) list;
}

let solve_control ~width (dp : Datapath.t) (control : Control.t) =
  Inject.fire "absint.fixpoint";
  timed @@ fun () ->
  let horizon = Dfg.num_csteps dp.Datapath.dfg in
  (* The emitted counter resets to 0 and increments while
     [step <= NUM_STEPS], so its reachable states are exactly
     0 .. horizon+1 (it parks on horizon+1). *)
  let reachable i = i >= 0 && i <= horizon + 1 in
  let unreachable =
    List.filter_map
      (fun (s : Control.step) ->
        if reachable s.Control.index then None else Some s.Control.index)
      control.Control.steps
    |> List.sort_uniq compare
  in
  let q : (string, Interval.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (r : Datapath.reg) ->
      Hashtbl.replace q r.Datapath.rid (Interval.const ~width 0))
    dp.Datapath.regs;
  let latched : (string, Interval.t) Hashtbl.t = Hashtbl.create 32 in
  let write_steps : (string, int list) Hashtbl.t = Hashtbl.create 32 in
  let written_before : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let used_writer : (string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let used_leg : (string * char * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let activations = ref [] and uninit = ref [] in
  let route_of opid =
    List.find_opt (fun (r : Datapath.route) -> String.equal r.Datapath.opid opid)
      dp.Datapath.routes
  in
  let reg_value rid =
    match Hashtbl.find_opt q rid with Some i -> i | None -> Interval.full ~width
  in
  let steps =
    List.filter (fun (s : Control.step) -> reachable s.Control.index)
      control.Control.steps
    |> List.stable_sort (fun (a : Control.step) b ->
           compare a.Control.index b.Control.index)
  in
  List.iter
    (fun (s : Control.step) ->
      (* compute phase: every active unit reads the registers as latched
         at the end of earlier steps *)
      let outs : (string, Interval.t) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (o : Control.unit_op) ->
          Hashtbl.replace used_leg (o.Control.mid, 'l', o.Control.l_select) ();
          Hashtbl.replace used_leg (o.Control.mid, 'r', o.Control.r_select) ();
          match (route_of o.Control.opid, Dfg.op_by_id dp.Datapath.dfg o.Control.opid) with
          | Some route, Some op ->
              let lr = route.Datapath.l_reg and rr = route.Datapath.r_reg in
              List.iter
                (fun rid ->
                  if not (Hashtbl.mem written_before rid) then
                    uninit := (s.Control.index, o.Control.opid, rid) :: !uninit)
                (List.sort_uniq compare [ lr; rr ]);
              let lv = reg_value lr and rv = reg_value rr in
              let t =
                if String.equal lr rr then
                  Interval.transfer_same op.Op.kind ~width lv
                else Interval.transfer op.Op.kind ~width lv rv
              in
              Hashtbl.replace outs o.Control.mid t.Interval.value;
              activations :=
                { step = s.Control.index;
                  mid = o.Control.mid;
                  opid = o.Control.opid;
                  a_left = lv;
                  a_right = rv;
                  a_out = t.Interval.value;
                  a_overflow = t.Interval.overflow;
                  a_div_by_zero = t.Interval.div_by_zero;
                }
                :: !activations
          | _ -> ())
        s.Control.ops;
      (* latch phase *)
      List.iter
        (fun (w : Control.write) ->
          Hashtbl.replace used_writer (w.Control.rid, w.Control.source_index) ();
          let sources =
            match List.assoc_opt w.Control.rid dp.Datapath.reg_writers with
            | Some ws -> ws
            | None -> []
          in
          match List.nth_opt sources w.Control.source_index with
          | Some (Datapath.From_unit mid) ->
              let v =
                match Hashtbl.find_opt outs mid with
                | Some v -> v
                (* an idle unit's output is whatever its default-selected
                   operands produce: unconstrained *)
                | None -> Interval.full ~width
              in
              Hashtbl.replace q w.Control.rid v;
              Hashtbl.replace latched w.Control.rid
                (match Hashtbl.find_opt latched w.Control.rid with
                | Some prev -> Interval.join ~width prev v
                | None -> v);
              Hashtbl.replace write_steps w.Control.rid
                (s.Control.index
                :: (match Hashtbl.find_opt write_steps w.Control.rid with
                   | Some l -> l
                   | None -> []))
          | Some (Datapath.From_port _) ->
              let v = Interval.full ~width in
              Hashtbl.replace q w.Control.rid v;
              Hashtbl.replace latched w.Control.rid
                (match Hashtbl.find_opt latched w.Control.rid with
                | Some prev -> Interval.join ~width prev v
                | None -> v);
              Hashtbl.replace write_steps w.Control.rid
                (s.Control.index
                :: (match Hashtbl.find_opt write_steps w.Control.rid with
                   | Some l -> l
                   | None -> []))
          | None -> ())
        s.Control.writes;
      (* reads at later steps see this step's writes as initialized *)
      List.iter
        (fun (w : Control.write) -> Hashtbl.replace written_before w.Control.rid ())
        s.Control.writes)
    steps;
  let regs =
    List.map
      (fun (r : Datapath.reg) ->
        let rid = r.Datapath.rid in
        let sources =
          match List.assoc_opt rid dp.Datapath.reg_writers with
          | Some ws -> ws
          | None -> []
        in
        let dead_writers =
          (* a single-writer register has no mux; its one leg is wired
             straight through, so there is nothing to be dead *)
          if List.length sources < 2 then []
          else
            List.init (List.length sources) Fun.id
            |> List.filter (fun i -> not (Hashtbl.mem used_writer (rid, i)))
        in
        { rid;
          latched = Hashtbl.find_opt latched rid;
          write_steps =
            (match Hashtbl.find_opt write_steps rid with
            | Some l -> List.sort_uniq compare l
            | None -> []);
          dead_writers;
        })
      dp.Datapath.regs
  in
  let dead_port_legs =
    List.concat_map
      (fun (u : Massign.hw) ->
        let l, r = Datapath.unit_port_sources dp u.Massign.mid in
        let dead side c srcs =
          if List.length srcs < 2 then []
          else
            List.concat
              (List.mapi
                 (fun i src ->
                   if Hashtbl.mem used_leg (u.Massign.mid, c, i) then []
                   else
                     [ { leg_mid = u.Massign.mid; side; leg_index = i; source = src } ])
                 srcs)
        in
        dead `L 'l' l @ dead `R 'r' r)
      dp.Datapath.massign.Massign.units
  in
  { horizon;
    unreachable;
    activations = List.rev !activations;
    regs;
    dead_port_legs;
    uninit_reads = List.sort_uniq compare !uninit;
  }

type component = {
  name : string;
  comp : [ `Register | `Unit ];
  full_bits : int;
  narrow_bits : int;
  value : Interval.t;
}

type plan = {
  plan_width : int;
  regw : (string * int) list;
  unitw : (string * int) list;
  components : component list;
  saved_bits : int;
  total_bits : int;
}

let plan_of_control ~width (dp : Datapath.t) cr =
  let reg_components =
    List.map
      (fun (rf : reg_facts) ->
        let value, narrow_bits =
          match rf.latched with
          | Some v -> (v, min width (Interval.bits v))
          | None -> (Interval.const ~width 0, width)
        in
        { name = rf.rid; comp = `Register; full_bits = width; narrow_bits; value })
      cr.regs
  in
  (* A unit narrows to the smallest width that (a) represents every
     operand and result it ever sees and (b) provably keeps every
     activation wrap-free — a narrower modulus would change the value
     the register file latches. Any possible wrap or zero divisor pins
     the unit at full width, where the uniform-width semantics are the
     spec by definition. *)
  let unit_components =
    List.filter_map
      (fun (u : Massign.hw) ->
        let acts =
          List.filter (fun a -> String.equal a.mid u.Massign.mid) cr.activations
        in
        if acts = [] then None
        else
          let kind_of opid =
            match Dfg.op_by_id dp.Datapath.dfg opid with
            | Some (op : Op.t) -> Some op.Op.kind
            | None -> None
          in
          let floor_bits =
            List.fold_left
              (fun acc a ->
                max acc
                  (max (Interval.bits a.a_left)
                     (max (Interval.bits a.a_right) (Interval.bits a.a_out))))
              1 acts
          in
          let floor_bits =
            if List.mem Op.Less u.Massign.kinds then max 2 floor_bits else floor_bits
          in
          let safe_at w =
            List.for_all
              (fun a ->
                match kind_of a.opid with
                | None -> false
                | Some kind ->
                    let al = Interval.make ~width:w a.a_left.Interval.lo a.a_left.Interval.hi in
                    let ar = Interval.make ~width:w a.a_right.Interval.lo a.a_right.Interval.hi in
                    let t = Interval.transfer kind ~width:w al ar in
                    t.Interval.overflow = Interval.No
                    && t.Interval.div_by_zero = Interval.No)
              acts
          in
          let rec fit w = if w >= width then width else if safe_at w then w else fit (w + 1) in
          let narrow_bits = fit floor_bits in
          let joined =
            List.fold_left
              (fun acc a -> Interval.join ~width acc a.a_out)
              (List.hd acts).a_out (List.tl acts)
          in
          Some
            { name = u.Massign.mid;
              comp = `Unit;
              full_bits = width;
              narrow_bits;
              value = joined;
            })
      dp.Datapath.massign.Massign.units
  in
  let components = reg_components @ unit_components in
  let pick comp =
    List.filter_map
      (fun c ->
        if c.comp = comp && c.narrow_bits < c.full_bits then
          Some (c.name, c.narrow_bits)
        else None)
      components
  in
  let weight c = match c.comp with `Register -> 1 | `Unit -> 3 in
  let saved_bits =
    List.fold_left
      (fun acc c -> acc + (weight c * (c.full_bits - c.narrow_bits)))
      0 components
  in
  let total_bits =
    List.fold_left (fun acc c -> acc + (weight c * c.full_bits)) 0 components
  in
  { plan_width = width;
    regw = pick `Register;
    unitw = pick `Unit;
    components;
    saved_bits;
    total_bits;
  }

let narrow_plan ~width dp control = plan_of_control ~width dp (solve_control ~width dp control)

let plan_is_empty p = p.regw = [] && p.unitw = []

let saved_percent p =
  if p.total_bits = 0 then 0.0
  else 100.0 *. float_of_int p.saved_bits /. float_of_int p.total_bits
