module Diagnostic = Bistpath_resilience.Diagnostic

type unscheduled = {
  name : string;
  ops : Op.t list;
  inputs : string list;
  outputs : string list;
  partial_schedule : (string * int) list;
  lines : Dfg.lines;
}

let empty =
  {
    name = "unnamed";
    ops = [];
    inputs = [];
    outputs = [];
    partial_schedule = [];
    lines = { Dfg.op_lines = []; input_lines = []; output_lines = [] };
  }

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> not (String.equal w ""))

let parse_op_line words =
  (* op <id> = <left> <sym> <right> -> <out> [@ <step>] *)
  let err msg = Error msg in
  match words with
  | [ "op"; id; "="; left; sym; right; "->"; out ] -> (
    match Op.of_symbol sym with
    | None -> err (Printf.sprintf "unknown operator %S" sym)
    | Some kind -> Ok ({ Op.id; kind; left; right; out }, None))
  | [ "op"; id; "="; left; sym; right; "->"; out; "@"; step ] -> (
    match (Op.of_symbol sym, int_of_string_opt step) with
    | None, _ -> err (Printf.sprintf "unknown operator %S" sym)
    | _, None -> err (Printf.sprintf "bad control step %S" step)
    | Some kind, Some s -> Ok ({ Op.id; kind; left; right; out }, Some s))
  | _ -> err "malformed op line"

let parse_string_diags ?max_errors text =
  let coll = Diagnostic.collector ?max_errors () in
  let acc = ref empty in
  let op_lines = ref [] and input_lines = ref [] and output_lines = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      (* A bad line is reported and skipped; parsing continues so one
         report covers every problem in the file. *)
      match split_words line with
      | [] -> ()
      | "dfg" :: [ name ] -> acc := { !acc with name }
      | "input" :: vars ->
        acc := { !acc with inputs = !acc.inputs @ vars };
        input_lines := List.rev_append (List.map (fun _ -> lineno) vars) !input_lines
      | "output" :: vars ->
        acc := { !acc with outputs = !acc.outputs @ vars };
        output_lines := List.rev_append (List.map (fun _ -> lineno) vars) !output_lines
      | "op" :: _ as words -> (
        match parse_op_line words with
        | Error msg -> Diagnostic.emit coll (Diagnostic.error ~line:lineno msg)
        | Ok (op, step) ->
          acc := { !acc with ops = !acc.ops @ [ op ] };
          op_lines := lineno :: !op_lines;
          (match step with
          | Some s ->
            acc := { !acc with partial_schedule = !acc.partial_schedule @ [ (op.Op.id, s) ] }
          | None -> ()))
      | w :: _ ->
        Diagnostic.emit coll (Diagnostic.errorf ~line:lineno "unknown directive %S" w))
    (String.split_on_char '\n' text);
  let lines =
    {
      Dfg.op_lines = List.rev !op_lines;
      input_lines = List.rev !input_lines;
      output_lines = List.rev !output_lines;
    }
  in
  ({ !acc with lines }, Diagnostic.all coll)

let parse_file_diags ?max_errors path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    let u, diags = parse_string_diags ?max_errors text in
    (u, List.map (fun d -> { d with Diagnostic.file = Some path }) diags)
  | exception Sys_error msg -> (empty, [ Diagnostic.error msg ])

let to_dfg_diags ?max_errors u =
  let unscheduled =
    List.filter
      (fun (op : Op.t) -> not (List.mem_assoc op.id u.partial_schedule))
      u.ops
  in
  match unscheduled with
  | [] ->
    Dfg.make_diags ?max_errors ~lines:u.lines ~name:u.name ~ops:u.ops ~inputs:u.inputs
      ~outputs:u.outputs ~schedule:u.partial_schedule ()
  | _ ->
    let coll = Diagnostic.collector ?max_errors () in
    List.iteri
      (fun i (op : Op.t) ->
        if not (List.mem_assoc op.id u.partial_schedule) then
          Diagnostic.emit coll
            (Diagnostic.errorf ?line:(List.nth_opt u.lines.Dfg.op_lines i)
               "operation %s has no control step" op.Op.id))
      u.ops;
    Error (Diagnostic.all coll)

let to_string (t : Dfg.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "dfg %s\n" t.name);
  if t.inputs <> [] then
    Buffer.add_string buf (Printf.sprintf "input %s\n" (String.concat " " t.inputs));
  if t.outputs <> [] then
    Buffer.add_string buf (Printf.sprintf "output %s\n" (String.concat " " t.outputs));
  List.iter
    (fun (op : Op.t) ->
      Buffer.add_string buf
        (Printf.sprintf "op %s = %s %s %s -> %s @ %d\n" op.id op.left
           (Op.symbol op.kind) op.right op.out
           (Dfg.cstep t op.id)))
    t.ops;
  Buffer.contents buf
