type polarity = Stuck_at_0 | Stuck_at_1

type t = { net : int; polarity : polarity }

let pp ppf f =
  Format.fprintf ppf "net%d/%s" f.net
    (match f.polarity with Stuck_at_0 -> "0" | Stuck_at_1 -> "1")

let all c =
  List.concat_map
    (fun net -> [ { net; polarity = Stuck_at_0 }; { net; polarity = Stuck_at_1 } ])
    (List.init c.Circuit.num_nets Fun.id)

(* Keep, per gate: the output faults, plus input faults only at
   non-controlled polarities. For AND/NAND an input s-a-0 is equivalent
   to output s-a-0/1 (drop the input fault); for OR/NOR input s-a-1
   likewise; for NOT/BUF drop both output faults (equivalent to input
   faults); XOR-family keeps everything. Primary inputs always keep
   both polarities. *)
let collapsed c =
  let drop = Hashtbl.create 64 in
  Array.iter
    (fun (g : Circuit.gate) ->
      match g.kind with
      | Circuit.And | Circuit.Nand ->
        List.iter (fun i -> Hashtbl.replace drop (i, Stuck_at_0) ()) g.inputs
      | Circuit.Or | Circuit.Nor ->
        List.iter (fun i -> Hashtbl.replace drop (i, Stuck_at_1) ()) g.inputs
      | Circuit.Not | Circuit.Buf ->
        Hashtbl.replace drop (g.output, Stuck_at_0) ();
        Hashtbl.replace drop (g.output, Stuck_at_1) ()
      | Circuit.Xor | Circuit.Xnor -> ())
    c.Circuit.gates;
  (* Never drop faults on primary inputs or outputs: they are the
     observation/controllability anchors. *)
  List.iter
    (fun n ->
      Hashtbl.remove drop (n, Stuck_at_0);
      Hashtbl.remove drop (n, Stuck_at_1))
    (c.Circuit.inputs @ c.Circuit.outputs);
  (* A stuck-at-v fault on a net that is constant v is untestable by
     construction (the builder's constant nets); exclude it. Constants
     are found by propagation from input-independent gates. *)
  let const = Hashtbl.create 16 in
  Array.iter
    (fun (g : Circuit.gate) ->
      let value n = Hashtbl.find_opt const n in
      let v =
        match (g.kind, g.inputs) with
        | Circuit.Xor, [ x; y ] when x = y -> Some false
        | Circuit.Xnor, [ x; y ] when x = y -> Some true
        | Circuit.Not, [ x ] -> Option.map not (value x)
        | Circuit.Buf, [ x ] -> value x
        | Circuit.And, ins when List.exists (fun i -> value i = Some false) ins -> Some false
        | Circuit.Or, ins when List.exists (fun i -> value i = Some true) ins -> Some true
        | Circuit.Nand, ins when List.exists (fun i -> value i = Some false) ins -> Some true
        | Circuit.Nor, ins when List.exists (fun i -> value i = Some true) ins -> Some false
        | (Circuit.And | Circuit.Or | Circuit.Nand | Circuit.Nor | Circuit.Xor
          | Circuit.Xnor | Circuit.Not | Circuit.Buf), _ ->
          None
      in
      match v with Some v -> Hashtbl.replace const g.output v | None -> ())
    c.Circuit.gates;
  let untestable f =
    match (Hashtbl.find_opt const f.net, f.polarity) with
    | Some false, Stuck_at_0 | Some true, Stuck_at_1 -> true
    | Some _, _ | None, _ -> false
  in
  List.filter
    (fun f -> (not (Hashtbl.mem drop (f.net, f.polarity))) && not (untestable f))
    (all c)

let stuck f = (f.net, match f.polarity with Stuck_at_0 -> 0L | Stuck_at_1 -> -1L)

let inject c f input_words = Sim.eval_nets ~stuck:(stuck f) c input_words
