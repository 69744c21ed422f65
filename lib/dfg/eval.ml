let env_of dfg ~inputs =
  List.iter
    (fun v ->
      if not (List.mem_assoc v inputs) then
        invalid_arg (Printf.sprintf "Eval.run: missing value for input %s" v))
    (Dfg.used_inputs dfg);
  List.iter
    (fun (v, _) ->
      if not (List.mem v dfg.Dfg.inputs) then
        invalid_arg (Printf.sprintf "Eval.run: %s is not a primary input" v))
    inputs;
  let tbl = Hashtbl.create 16 in
  List.iter (fun (v, x) -> Hashtbl.replace tbl v x) inputs;
  tbl

let eval_all dfg ~width ~inputs =
  let env = env_of dfg ~inputs in
  let value v =
    match Hashtbl.find_opt env v with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "Eval.run: %s read before definition" v)
  in
  for step = 1 to Dfg.num_csteps dfg do
    (* all reads of a step happen before its writes land *)
    let results =
      List.map
        (fun (op : Op.t) ->
          (op.out, Op.eval op.kind ~width (value op.left) (value op.right)))
        (Dfg.ops_in_step dfg step)
    in
    List.iter (fun (v, x) -> Hashtbl.replace env v x) results
  done;
  env

let run dfg ~width ~inputs =
  let env = eval_all dfg ~width ~inputs in
  dfg.Dfg.outputs
  |> List.map (fun v -> (v, Hashtbl.find env v))
  |> List.sort compare

let run_all dfg ~width ~inputs =
  let env = eval_all dfg ~width ~inputs in
  Hashtbl.fold (fun v x acc -> (v, x) :: acc) env [] |> List.sort compare
