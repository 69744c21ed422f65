module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op

type trace_entry = {
  step : int;
  register_file : (string * int) list;
}

(* A control step resolved to indices: each active unit's kind and
   operand registers, each latch's register and source, and each primary
   output whose register latches it this step ({!Control.latch_step}). *)
type source =
  | Unit of int  (* a unit slot computed this step *)
  | Pin of int * string  (* an input slot, by name for the error *)
  | Idle of string * string  (* (register, unit): the unit is not active *)

type step_program = {
  index : int;
  ops : (int * (int -> int -> int) * int * int) array;  (* unit slot, function, left, right *)
  writes : (int * source) array;  (* register slot, source *)
  captures : (int * int) list;  (* output position, register slot *)
}

let run ?(trace = false) (dp : Datapath.t) ~width =
  let dfg = dp.Datapath.dfg in
  let used_inputs = Dfg.used_inputs dfg in
  let control = Control.build dp in
  let slots () =
    let tbl = Hashtbl.create 16 in
    ( tbl,
      fun name ->
        match Hashtbl.find_opt tbl name with
        | Some i -> i
        | None ->
          let i = Hashtbl.length tbl in
          Hashtbl.replace tbl name i;
          i )
  in
  let regs, reg_slot = slots () in
  List.iter (fun (r : Datapath.reg) -> ignore (reg_slot r.Datapath.rid)) dp.Datapath.regs;
  let traced = Hashtbl.length regs in
  let pins, pin_slot = slots () in
  let units, unit_slot = slots () in
  let route_of opid =
    List.find (fun (rt : Datapath.route) -> String.equal rt.opid opid) dp.Datapath.routes
  in
  let outputs = Array.of_list dp.Datapath.outputs in
  let latches =
    List.mapi (fun k (v, rid) -> (Control.latch_step dfg v, (k, reg_slot rid))) dp.Datapath.outputs
  in
  let steps =
    List.map
      (fun (s : Control.step) ->
        let ops =
          List.map
            (fun (uop : Control.unit_op) ->
              let rt = route_of uop.Control.opid in
              let op =
                match Dfg.op_by_id dfg uop.Control.opid with
                | Some op -> op
                | None -> assert false
              in
              ( unit_slot uop.Control.mid,
                Op.eval op.Op.kind ~width,
                reg_slot rt.Datapath.l_reg,
                reg_slot rt.Datapath.r_reg ))
            s.Control.ops
        in
        let active mid = List.exists (fun (u : Control.unit_op) -> u.Control.mid = mid) s.Control.ops in
        let writes =
          List.map
            (fun (w : Control.write) ->
              let writers = List.assoc w.Control.rid dp.Datapath.reg_writers in
              ( reg_slot w.Control.rid,
                match List.nth writers w.Control.source_index with
                | Datapath.From_unit mid when active mid -> Unit (unit_slot mid)
                | Datapath.From_unit mid -> Idle (w.Control.rid, mid)
                | Datapath.From_port v -> Pin (pin_slot v, v) ))
            s.Control.writes
        in
        let captures =
          List.filter_map (fun (at, c) -> if at = s.Control.index then Some c else None) latches
        in
        { index = s.Control.index; ops = Array.of_list ops; writes = Array.of_list writes; captures })
      control.Control.steps
  in
  let rids = Array.make (Hashtbl.length regs) "" in
  Hashtbl.iter (fun rid i -> rids.(i) <- rid) regs;
  let mask = (1 lsl width) - 1 in
  let npins = Hashtbl.length pins and nunits = Hashtbl.length units in
  fun ~inputs ->
    List.iter
      (fun v ->
        if not (List.mem_assoc v inputs) then
          invalid_arg (Printf.sprintf "Interp.run: missing value for input %s" v))
      used_inputs;
    (* the first binding of a name counts, as with [List.assoc] *)
    let pin_value = Array.make npins None in
    List.iter
      (fun (v, x) ->
        match Hashtbl.find_opt pins v with
        | Some i when pin_value.(i) = None -> pin_value.(i) <- Some (x land mask)
        | Some _ | None -> ())
      inputs;
    let pin i v =
      match pin_value.(i) with
      | Some x -> x
      | None -> invalid_arg (Printf.sprintf "Interp.run: no pin %s" v)
    in
    let reg = Array.make (Array.length rids) 0 in
    let unit_result = Array.make nunits 0 in
    let captured = Array.make (Array.length outputs) None in
    let traces = ref [] in
    List.iter
      (fun st ->
        (* compute phase: every active unit reads the current registers *)
        Array.iter (fun (u, f, l, r) -> unit_result.(u) <- f reg.(l) reg.(r)) st.ops;
        (* latch phase: writes read only unit results and pins, so
           latching in order is latching at once *)
        let value = function
          | Unit u -> unit_result.(u)
          | Pin (i, v) -> pin i v
          | Idle (rid, mid) ->
            invalid_arg (Printf.sprintf "Interp.run: %s latches from idle unit %s" rid mid)
        in
        Array.iter (fun (r, src) -> reg.(r) <- value src) st.writes;
        (* capture primary outputs latched this step *)
        List.iter (fun (k, r) -> captured.(k) <- Some reg.(r)) st.captures;
        if trace then
          traces :=
            { step = st.index; register_file = List.init traced (fun i -> (rids.(i), reg.(i))) }
            :: !traces)
      steps;
    let outputs =
      Array.to_list
        (Array.mapi
           (fun k (v, _) -> (v, match captured.(k) with Some x -> x | None -> raise Not_found))
           outputs)
      |> List.sort compare
    in
    (outputs, List.rev !traces)

let equivalent_to_dfg dp ~width =
  let run = run dp ~width in
  fun ~inputs ->
    let got, _ = run ~inputs in
    got = Bistpath_dfg.Eval.run dp.Datapath.dfg ~width ~inputs

let run_iterations dp ~policy ~width ~iterations ~inputs =
  if iterations < 1 then invalid_arg "Interp.run_iterations: iterations must be >= 1";
  let carried = policy.Bistpath_dfg.Policy.carried in
  List.iter
    (fun (w, _) ->
      if not (List.mem_assoc w dp.Datapath.outputs) then
        invalid_arg
          (Printf.sprintf
             "Interp.run_iterations: carried result %s is not a primary output" w))
    carried;
  let run = run dp ~width in
  let rec go k inputs acc =
    let outs, _ = run ~inputs in
    let acc = outs :: acc in
    if k = iterations then List.rev acc
    else
      let next =
        List.map
          (fun (v, x) ->
            match List.find_opt (fun (_, target) -> String.equal target v) carried with
            | Some (w, _) -> (v, List.assoc w outs)
            | None -> (v, x))
          inputs
      in
      go (k + 1) next acc
  in
  go 1 inputs []
