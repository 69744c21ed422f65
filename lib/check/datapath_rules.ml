module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Interp = Bistpath_datapath.Interp
module Equiv = Bistpath_rtl.Equiv
module Prng = Bistpath_util.Prng
open Rule

let error = Bistpath_resilience.Diagnostic.Error
let warning = Bistpath_resilience.Diagnostic.Warning

(* DP001: a register would have to latch two values in one control step.
   Re-derived from the schedule and routes, independently of
   [Control.build] (which refuses to build such a table at all); a
   stored primary input latches at its [Control.latch_step]. *)
let dp001 ctx _ =
  let writes =
    List.filter_map
      (fun x ->
        match expected_reg ctx x with
        | Some r -> Some (Control.latch_step ctx.dfg x, r, x)
        | None -> None)
      (consumed_inputs ctx)
    @ List.concat_map
        (fun (op : Op.t) ->
          List.map
            (fun (r : Datapath.route) -> (Dfg.cstep ctx.dfg op.Op.id, r.Datapath.out_reg, op.Op.out))
            (op_routes ctx op))
        ctx.dfg.Dfg.ops
  in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (step, rid, var) ->
      let key = (step, rid) in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key (var :: prev))
    writes;
  Hashtbl.fold
    (fun (step, rid) vars acc ->
      match List.sort_uniq compare vars with
      | _ :: _ :: _ as vs ->
          v "DP001" error rid "register must latch %s simultaneously at the end of step %d"
            (String.concat ", " vs) step
          :: acc
      | _ -> acc)
    tbl []
  |> List.sort compare

(* DP002: every connection of a net in the parsed-back netlist drives or
   reads it at the net's declared width. *)
let dp002 _ facts =
  List.concat_map
    (fun (n : Equiv.net) ->
      let width =
        match (n.Equiv.declared, n.Equiv.drivers) with
        | Some w, _ -> Some w
        | None, d :: _ -> d.Equiv.width
        | None, [] -> None
      in
      let mismatch fmt (ep : Equiv.endpoint) =
        match (width, ep.Equiv.width) with
        | Some w, Some w' when w' <> w -> Some (fmt w ep.Equiv.cell w')
        | _ -> None
      in
      let finding = v "DP002" error n.Equiv.net in
      List.filter_map (mismatch (finding "declared %d bits wide but %s drives it with %d bits"))
        n.Equiv.drivers
      @ List.filter_map (mismatch (finding "driven %d bits wide but %s reads it as %d bits"))
          n.Equiv.readers)
    (Lazy.force facts.nets)

(* DP003: interconnect completeness — every scheduled transfer has a
   physical path. *)
let dp003 ctx _ =
  let per_op =
    List.concat_map
      (fun (op : Op.t) ->
        match op_routes ctx op with
        | [] -> [ v "DP003" error op.Op.id "operation has no route through the interconnect" ]
        | _ :: _ :: _ -> [ v "DP003" error op.Op.id "operation has more than one route" ]
        | [ route ] -> (
            match mid_of_op ctx op.Op.id with
            | None -> [ v "DP003" error op.Op.id "operation is bound to no functional unit" ]
            | Some mid ->
                if List.mem (Datapath.From_unit mid) (writers ctx route.Datapath.out_reg) then
                  []
                else
                  [ v "DP003" error op.Op.id
                      "result transfer %s -> %s has no physical path: the register's writer \
                       list lacks the unit"
                      mid route.Datapath.out_reg ]))
      ctx.dfg.Dfg.ops
  in
  let per_input =
    List.concat_map
      (fun x ->
        match expected_reg ctx x with
        | None -> [ v "DP003" error x "consumed primary input has no register" ]
        | Some r ->
            if List.mem (Datapath.From_port x) (writers ctx r) then []
            else
              [ v "DP003" error x
                  "input load %s -> %s has no physical path: the register's writer list \
                   lacks the pin"
                  x r ])
      (consumed_inputs ctx)
  in
  let per_output =
    List.concat_map
      (fun o ->
        match List.assoc_opt o ctx.datapath.Datapath.outputs with
        | None -> [ v "DP003" error o "primary output is not latched in any register" ]
        | Some rid -> (
            match stored_vars ctx rid with
            | None -> [ v "DP003" error o "primary output points at a register that does not exist" ]
            | Some vars ->
                if List.mem o vars then []
                else
                  [ v "DP003" error o "primary output claims register %s, which never holds it" rid ]))
      ctx.dfg.Dfg.outputs
  in
  per_op @ per_input @ per_output

(* DP004: a register nothing ever reads. *)
let dp004 ctx _ =
  let read rid =
    List.exists
      (fun (r : Datapath.route) -> r.Datapath.l_reg = rid || r.Datapath.r_reg = rid)
      ctx.datapath.Datapath.routes
    || List.exists (fun (_, r) -> r = rid) ctx.datapath.Datapath.outputs
  in
  List.filter_map
    (fun (r : Datapath.reg) ->
      if read r.Datapath.rid then None
      else
        Some
          (v "DP004" warning r.Datapath.rid
             "register is never read by any unit port or output port (dead storage)"))
    ctx.datapath.Datapath.regs

(* DP005: a route's registers disagree with the register assignment. *)
let dp005 ctx _ =
  List.concat_map
    (fun (op : Op.t) ->
      match op_routes ctx op with
      | [ route ] ->
          let l_var, r_var =
            if route.Datapath.swapped then (op.Op.right, op.Op.left) else (op.Op.left, op.Op.right)
          in
          let check what claimed var =
            match expected_reg ctx var with
            | None -> []  (* DP003 reports unplaceable variables *)
            | Some expect ->
                if claimed = expect then []
                else
                  [ v "DP005" error op.Op.id
                      "%s operand %s lives in %s but the route reads %s" what var expect claimed ]
          in
          check "left" route.Datapath.l_reg l_var
          @ check "right" route.Datapath.r_reg r_var
          @ check "result" route.Datapath.out_reg op.Op.out
      | _ -> [])
    ctx.dfg.Dfg.ops

(* DP006: swapped operands on a non-commutative operation. *)
let dp006 ctx _ =
  List.concat_map
    (fun (op : Op.t) ->
      List.filter_map
        (fun (r : Datapath.route) ->
          if r.Datapath.swapped && not (Op.commutative op.Op.kind) then
            Some
              (v "DP006" error op.Op.id "operands of non-commutative %s are swapped"
                 (Op.symbol op.Op.kind))
          else None)
        (op_routes ctx op))
    ctx.dfg.Dfg.ops

(* EQ001: dynamic spot-check — the interpreted data path must agree with
   the behavioural DFG on random vectors. Disabled when [vectors = 0]
   (hand-corrupted fixtures exercise the static rules in isolation). *)
let eq001 ctx _ =
  if ctx.vectors <= 0 then []
  else
    let failed e =
      [ v "EQ001" error ctx.design "data-path interpretation failed: %s" (Printexc.to_string e) ]
    in
    match Interp.equivalent_to_dfg ctx.datapath ~width:ctx.width with
    | exception e -> failed e
    | equivalent ->
      let rng = Prng.create 0x5EED in
      let limit = 1 lsl ctx.width in
      let rec go i =
        if i > ctx.vectors then []
        else
          let inputs = List.map (fun x -> (x, Prng.int rng limit)) ctx.dfg.Dfg.inputs in
          match equivalent ~inputs with
          | true -> go (i + 1)
          | false ->
              [ v "EQ001" error ctx.design
                  "data path diverges from the DFG semantics on random vector %d of %d" i
                  ctx.vectors ]
          | exception e -> failed e
      in
      go 1

let rules =
  [
    { id = "DP001"; severity = error;
      title = "register must latch two values in one control step";
      run = dp001;
    };
    { id = "DP002"; severity = error; title = "port width mismatch"; run = dp002 };
    { id = "DP003"; severity = error;
      title = "scheduled transfer has no physical path";
      run = dp003;
    };
    { id = "DP004"; severity = warning; title = "dead register"; run = dp004 };
    { id = "DP005"; severity = error;
      title = "route disagrees with the register assignment";
      run = dp005;
    };
    { id = "DP006"; severity = error;
      title = "operands of a non-commutative operation are swapped";
      run = dp006;
    };
    { id = "EQ001"; severity = error;
      title = "data path diverges from the DFG semantics (random vectors)";
      run = eq001;
    };
  ]
