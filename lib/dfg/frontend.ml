type token =
  | Ident of string
  | Number of int
  | Operator of Op.kind
  | Equals
  | Lparen
  | Rparen
  | Semicolon
  | Output_kw

module Diagnostic = Bistpath_resilience.Diagnostic

(* Internal control flow only; surfaced as diagnostics. *)
exception Error_at of int option * string

let fail lineno fmt =
  Format.kasprintf (fun msg -> raise (Error_at (Some lineno, msg))) fmt

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* Tokenize one line. *)
let tokenize lineno line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match line.[i] with
      | ' ' | '\t' | '\r' -> go (i + 1) acc
      | '#' -> List.rev acc
      | '=' -> go (i + 1) (Equals :: acc)
      | '(' -> go (i + 1) (Lparen :: acc)
      | ')' -> go (i + 1) (Rparen :: acc)
      | ';' -> go (i + 1) (Semicolon :: acc)
      | ('+' | '-' | '*' | '/' | '&' | '|' | '^' | '<') as c -> (
        match Op.of_symbol (String.make 1 c) with
        | Some k -> go (i + 1) (Operator k :: acc)
        | None -> fail lineno "unknown operator %c" c)
      | '0' .. '9' ->
        let j = ref i in
        while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
          incr j
        done;
        go !j (Number (int_of_string (String.sub line i (!j - i))) :: acc)
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ref i in
        while !j < n && is_ident_char line.[!j] do
          incr j
        done;
        let word = String.sub line i (!j - i) in
        let tok = if String.equal word "output" then Output_kw else Ident word in
        go !j (tok :: acc)
      | c -> fail lineno "unexpected character %C" c
  in
  go 0 []

type ast =
  | Var of string
  | Const of int
  | Bin of Op.kind * ast * ast

(* Precedence climbing: level 0 = '<', level 1 = '+'/'-', level 2 = the
   rest; all left-associative. *)
let level = function
  | Op.Less -> 0
  | Op.Add | Op.Sub -> 1
  | Op.Mul | Op.Div | Op.And | Op.Or | Op.Xor -> 2

let parse_expr lineno tokens =
  let toks = ref tokens in
  let peek () = match !toks with t :: _ -> Some t | [] -> None in
  let advance () = match !toks with _ :: rest -> toks := rest | [] -> () in
  let rec primary () =
    match peek () with
    | Some (Ident v) ->
      advance ();
      Var v
    | Some (Number x) ->
      advance ();
      Const x
    | Some Lparen ->
      advance ();
      let e = expr 0 in
      (match peek () with
      | Some Rparen -> advance ()
      | _ -> fail lineno "expected ')'");
      e
    | _ -> fail lineno "expected identifier, number or '('"
  and expr min_level =
    let left = ref (primary ()) in
    let continue = ref true in
    while !continue do
      match peek () with
      | Some (Operator k) when level k >= min_level ->
        advance ();
        let right = expr (level k + 1) in
        left := Bin (k, !left, right)
      | _ -> continue := false
    done;
    !left
  in
  let e = expr 0 in
  (e, !toks)

type builder = {
  mutable ops : Op.t list;  (* reversed *)
  mutable defined : string list;
  mutable declared_outputs : string list;
  mutable temp : int;
  cse : (Op.kind * string * string, string) Hashtbl.t;
  constants : (int, string) Hashtbl.t;
}

let lower b lineno target ast =
  let rec go = function
    | Var v -> v
    | Const x -> (
      match Hashtbl.find_opt b.constants x with
      | Some v -> v
      | None ->
        let v = Printf.sprintf "k%d" x in
        if List.mem v b.defined then fail lineno "constant name %s collides" v;
        Hashtbl.replace b.constants x v;
        v)
    | Bin (kind, l, r) ->
      let lv = go l and rv = go r in
      let key =
        (* commutative operations share both orientations *)
        if Op.commutative kind && String.compare rv lv < 0 then (kind, rv, lv)
        else (kind, lv, rv)
      in
      (match Hashtbl.find_opt b.cse key with
      | Some v -> v
      | None ->
        b.temp <- b.temp + 1;
        let out = Printf.sprintf "t%d" b.temp in
        let id = Printf.sprintf "%s%d" (Op.symbol kind) b.temp in
        b.ops <- { Op.id; kind; left = lv; right = rv; out } :: b.ops;
        Hashtbl.replace b.cse key out;
        out)
  in
  match ast with
  | Bin (kind, l, r) ->
    (* the root takes the statement's target name directly *)
    let lv = go l and rv = go r in
    b.temp <- b.temp + 1;
    let id = Printf.sprintf "%s%d" (Op.symbol kind) b.temp in
    b.ops <- { Op.id; kind; left = lv; right = rv; out = target } :: b.ops;
    let key =
      if Op.commutative kind && String.compare rv lv < 0 then (kind, rv, lv)
      else (kind, lv, rv)
    in
    Hashtbl.replace b.cse key target
  | Var v ->
    fail lineno "aliasing %s = %s is not supported (registers hold values, not names)"
      target v
  | Const _ -> fail lineno "constant assignment to %s is not supported" target

let parse_diags ~name ?max_errors text =
  let coll = Diagnostic.collector ?max_errors () in
  let emit ?line msg = Diagnostic.emit coll (Diagnostic.error ?line msg) in
  let b =
    {
      ops = [];
      defined = [];
      declared_outputs = [];
      temp = 0;
      cse = Hashtbl.create 32;
      constants = Hashtbl.create 8;
    }
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      (* split statements on ';' *)
      let chunks = String.split_on_char ';' line in
      List.iter
        (fun chunk ->
          (* Statement-level recovery: a bad statement is reported and
             skipped; later statements still parse, so one run reports
             every problem in the text. *)
          try
            match tokenize lineno chunk with
            | [] -> ()
            | Output_kw :: rest ->
              List.iter
                (function
                  | Ident v -> b.declared_outputs <- b.declared_outputs @ [ v ]
                  | _ -> fail lineno "output directive takes identifiers")
                rest
            | Ident target :: Equals :: rest ->
              if List.mem target b.defined then fail lineno "%s defined twice" target;
              let ast, leftover = parse_expr lineno rest in
              if leftover <> [] then fail lineno "trailing tokens after expression";
              lower b lineno target ast;
              b.defined <- target :: b.defined
            | _ -> fail lineno "expected 'name = expr' or 'output ...'"
          with Error_at (l, m) -> emit ?line:l m)
        chunks)
    lines;
  let ops = List.rev b.ops in
  if ops = [] then begin
    emit "no statements";
    Error (Diagnostic.all coll)
  end
  else begin
    let produced = List.map (fun (o : Op.t) -> o.Op.out) ops in
    let used v =
      List.exists (fun (o : Op.t) -> String.equal o.Op.left v || String.equal o.Op.right v) ops
    in
    let inputs =
      List.concat_map (fun (o : Op.t) -> [ o.Op.left; o.Op.right ]) ops
      |> List.sort_uniq compare
      |> List.filter (fun v -> not (List.mem v produced))
    in
    let outputs =
      List.sort_uniq compare
        (b.declared_outputs @ List.filter (fun v -> not (used v)) produced)
    in
    List.iter
      (fun v ->
        if not (List.mem v produced) then
          emit (Printf.sprintf "declared output %s is never defined" v))
      outputs;
    if Diagnostic.errors coll > 0 then Error (Diagnostic.all coll)
    else Ok { Scheduler.name; ops; inputs; outputs }
  end

let compile_diags ~name ?(resources = []) ?max_errors text =
  match parse_diags ~name ?max_errors text with
  | Error _ as e -> e
  | Ok problem ->
    let schedule =
      if resources = [] then Scheduler.asap problem
      else Scheduler.list_schedule problem ~resources
    in
    Dfg.make_diags ?max_errors ~name:problem.Scheduler.name ~ops:problem.Scheduler.ops
      ~inputs:problem.Scheduler.inputs ~outputs:problem.Scheduler.outputs ~schedule ()
