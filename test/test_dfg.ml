(* Tests for Bistpath_dfg: DFG construction/validation, module
   assignment, parser round-trips, scheduling. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Massign = Oracles.Massign
module Parser = Bistpath_dfg.Parser
module Scheduler = Bistpath_dfg.Scheduler
module B = Bistpath_benchmarks.Benchmarks
module Prng = Bistpath_util.Prng
module Diagnostic = Bistpath_resilience.Diagnostic

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* Text to a scheduled DFG through the accumulating front end. Any
   diagnostic fails the test, with every message. *)
let of_text text =
  let fail ds = Alcotest.fail (String.concat "\n" (List.map Diagnostic.to_string ds)) in
  let u, diags = Parser.parse_string_diags text in
  if diags <> [] then fail diags;
  match Parser.to_dfg_diags u with Ok d -> d | Error ds -> fail ds

let op id kind l r out = { Op.id; kind; left = l; right = r; out }

let tiny () =
  Dfg.make ~name:"tiny"
    ~ops:[ op "+1" Op.Add "a" "b" "c"; op "*1" Op.Mul "c" "a" "d" ]
    ~inputs:[ "a"; "b" ] ~outputs:[ "d" ]
    ~schedule:[ ("+1", 1); ("*1", 2) ]

let expects_invalid name f =
  case name (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let op_kinds () =
  check Alcotest.int "8 kinds" 8 (List.length Op.all_kinds);
  List.iter
    (fun k ->
      check (Alcotest.option Alcotest.bool) "symbol roundtrip" (Some (Op.commutative k))
        (Option.map Op.commutative (Op.of_symbol (Op.symbol k))))
    Op.all_kinds;
  check Alcotest.bool "add commutative" true (Op.commutative Op.Add);
  check Alcotest.bool "sub not" false (Op.commutative Op.Sub);
  check Alcotest.bool "div not" false (Op.commutative Op.Div);
  check (Alcotest.option Alcotest.string) "unknown symbol" None
    (Option.map Op.symbol (Op.of_symbol "%"))

let operands_dedup () =
  check (Alcotest.list Alcotest.string) "square op" [ "x" ]
    (Op.operands (op "sq" Op.Mul "x" "x" "y"))

let dfg_accessors () =
  let d = tiny () in
  check (Alcotest.list Alcotest.string) "variables" [ "a"; "b"; "c"; "d" ] (Dfg.variables d);
  check Alcotest.int "csteps" 2 (Dfg.num_csteps d);
  check (Alcotest.option Alcotest.string) "producer of c" (Some "+1")
    (Option.map (fun (o : Op.t) -> o.id) (Dfg.producer d "c"));
  check (Alcotest.option Alcotest.string) "producer of a" None
    (Option.map (fun (o : Op.t) -> o.id) (Dfg.producer d "a"));
  check Alcotest.int "consumers of a" 2 (List.length (Dfg.consumers d "a"));
  check Alcotest.int "ops in step 1" 1 (List.length (Dfg.ops_in_step d 1));
  check Alcotest.int "cstep" 2 (Dfg.cstep d "*1");
  check (Alcotest.option Alcotest.string) "op_by_id" (Some "+1")
    (Option.map (fun (o : Op.t) -> o.id) (Dfg.op_by_id d "+1"))

let dfg_kind_counts () =
  let d = tiny () in
  check Alcotest.int "adds" 1 (List.assoc Op.Add (Dfg.kind_counts d));
  check Alcotest.int "muls" 1 (List.assoc Op.Mul (Dfg.kind_counts d));
  check (Alcotest.option Alcotest.int) "no subs" None
    (List.assoc_opt Op.Sub (Dfg.kind_counts d))

let validation_cases =
  [
    expects_invalid "duplicate op id" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "b" "c"; op "x" Op.Add "a" "b" "d" ]
          ~inputs:[ "a"; "b" ] ~outputs:[]
          ~schedule:[ ("x", 1) ]);
    expects_invalid "variable produced twice" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "b" "c"; op "y" Op.Add "a" "b" "c" ]
          ~inputs:[ "a"; "b" ] ~outputs:[]
          ~schedule:[ ("x", 1); ("y", 1) ]);
    expects_invalid "undefined operand" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "q" "c" ]
          ~inputs:[ "a" ] ~outputs:[]
          ~schedule:[ ("x", 1) ]);
    expects_invalid "undefined output" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "b" "c" ]
          ~inputs:[ "a"; "b" ] ~outputs:[ "zz" ]
          ~schedule:[ ("x", 1) ]);
    expects_invalid "missing schedule" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "b" "c" ]
          ~inputs:[ "a"; "b" ] ~outputs:[] ~schedule:[]);
    expects_invalid "non-positive step" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "b" "c" ]
          ~inputs:[ "a"; "b" ] ~outputs:[]
          ~schedule:[ ("x", 0) ]);
    expects_invalid "use before production" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "b" "c"; op "y" Op.Add "c" "a" "d" ]
          ~inputs:[ "a"; "b" ] ~outputs:[]
          ~schedule:[ ("x", 2); ("y", 1) ]);
    expects_invalid "input also produced" (fun () ->
        Dfg.make ~name:"bad"
          ~ops:[ op "x" Op.Add "a" "b" "a" ]
          ~inputs:[ "a"; "b" ] ~outputs:[]
          ~schedule:[ ("x", 1) ]);
  ]

let massign_sets () =
  let inst = B.ex1 () in
  let i1 = Massign.input_variable_set inst.B.massign inst.B.dfg "M1" in
  let o1 = Massign.output_variable_set inst.B.massign inst.B.dfg "M1" in
  let i2 = Massign.input_variable_set inst.B.massign inst.B.dfg "M2" in
  let o2 = Massign.output_variable_set inst.B.massign inst.B.dfg "M2" in
  let sl s = Dfg.Sset.elements s in
  check (Alcotest.list Alcotest.string) "I_M1" [ "a"; "b"; "c"; "d" ] (sl i1);
  check (Alcotest.list Alcotest.string) "O_M1" [ "d"; "f" ] (sl o1);
  check (Alcotest.list Alcotest.string) "I_M2" [ "a"; "b"; "e"; "g" ] (sl i2);
  check (Alcotest.list Alcotest.string) "O_M2" [ "c"; "h" ] (sl o2)

let massign_tm () =
  let inst = B.ex1 () in
  check Alcotest.int "TM(M1)" 2 (Massign.temporal_multiplicity inst.B.massign inst.B.dfg "M1");
  check Alcotest.int "instances ordered" 2
    (List.length (Massign.instances inst.B.massign inst.B.dfg "M2"));
  check Alcotest.int "instance operand sets" 2
    (List.length (Massign.instance_operands inst.B.massign inst.B.dfg "M1"))

let massign_validation () =
  let d = tiny () in
  (match
     Massign.make d
       ~units:[ { Massign.mid = "A"; kinds = [ Op.Add ] } ]
       ~bind:[ ("+1", "A"); ("*1", "A") ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  (match
     Massign.make d
       ~units:
         [ { Massign.mid = "A"; kinds = [ Op.Add ] }; { Massign.mid = "M"; kinds = [ Op.Mul ] } ]
       ~bind:[ ("+1", "A") ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbound op accepted");
  let d2 =
    Dfg.make ~name:"clash"
      ~ops:[ op "x" Op.Add "a" "b" "c"; op "y" Op.Add "a" "b" "d" ]
      ~inputs:[ "a"; "b" ] ~outputs:[]
      ~schedule:[ ("x", 1); ("y", 1) ]
  in
  match
    Massign.make d2
      ~units:[ { Massign.mid = "A"; kinds = [ Op.Add ] } ]
      ~bind:[ ("x", "A"); ("y", "A") ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "structural hazard accepted"

let massign_describe () =
  let inst = B.tseng2 () in
  check Alcotest.string "tseng2" "1+, 3ALU" (Massign.describe inst.B.massign inst.B.dfg)

let parser_roundtrip () =
  let d = tiny () in
  let d2 = of_text (Parser.to_string d) in
  check Alcotest.string "name" d.Dfg.name d2.Dfg.name;
  check Alcotest.int "ops" (List.length d.Dfg.ops) (List.length d2.Dfg.ops);
  check (Alcotest.list Alcotest.string) "vars" (Dfg.variables d) (Dfg.variables d2);
  check Alcotest.int "schedule preserved" (Dfg.cstep d "*1") (Dfg.cstep d2 "*1")

let parser_errors () =
  let located ds = List.map (fun (d : Diagnostic.t) -> (d.line, d.message)) ds in
  let diag_list = Alcotest.(list (pair (option int) string)) in
  let parse_errors text = located (snd (Parser.parse_string_diags text)) in
  check diag_list "malformed op" [ (Some 1, "malformed op line") ] (parse_errors "op broken");
  check diag_list "unknown operator"
    [ (Some 1, "unknown operator \"%\"") ]
    (parse_errors "op x = a % b -> c @ 1");
  check diag_list "unknown directive"
    [ (Some 1, "unknown directive \"frobnicate\"") ]
    (parse_errors "frobnicate");
  let u, diags = Parser.parse_string_diags "dfg t\ninput a b\nop x = a + b -> c" in
  check diag_list "unscheduled op parses" [] (located diags);
  match Parser.to_dfg_diags u with
  | Error ds ->
    check diag_list "unscheduled op" [ (Some 3, "operation x has no control step") ] (located ds)
  | Ok _ -> Alcotest.fail "accepted unscheduled op"

(* A DFG broken on one line is reported at that line, as the parser's
   syntax errors are: the loader's lines are what [synth run] prints. *)
let validation_errors_carry_lines () =
  let expect text want =
    let path = Filename.temp_file "broken" ".dfg" in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    let got = Bistpath_service.Runner.load_instance path in
    Sys.remove path;
    match got with
    | Ok _ -> Alcotest.fail "broken DFG accepted"
    | Error lines -> check (Alcotest.list Alcotest.string) want [ path ^ want ] lines
  in
  expect "dfg u\ninput a b\noutput h\nop +1 = a + q -> h @ 1\n"
    ":4: error: Dfg u: operand q of +1 is undefined";
  expect "dfg u\ninput a b\noutput h z\nop +1 = a + b -> h @ 1\n"
    ":3: error: Dfg u: primary output z is undefined";
  expect "dfg u\ninput a b e\noutput e h\nop +1 = a + b -> h @ 1\n"
    ":3: error: Dfg u: primary output e is an input no operation reads";
  expect "dfg u\ninput a b\noutput h\nop +1 = a + b -> h @ 1\nop +1 = b + b -> k @ 2\n"
    ":5: error: Dfg u: duplicate operation id +1";
  expect "dfg u\ninput a\ninput b a\noutput h\nop +1 = a + b -> h @ 1\n"
    ":3: error: Dfg u: primary input a is declared twice";
  expect "dfg u\ninput a b\noutput h\noutput h\nop +1 = a + b -> h @ 1\n"
    ":4: error: Dfg u: primary output h is declared twice"

let parser_comments_and_whitespace () =
  let d =
    of_text "# header\ndfg t\n  input a b  # trailing\n\nop x = a + b -> c @ 1\noutput c\n"
  in
  check (Alcotest.list Alcotest.string) "inputs" [ "a"; "b" ] d.Dfg.inputs;
  check (Alcotest.list Alcotest.string) "outputs" [ "c" ] d.Dfg.outputs

let prop_parser_roundtrip_random =
  QCheck.Test.make ~name:"parser round-trips random DFGs" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:8 ~inputs:4 in
      Dfg.variables (of_text (Parser.to_string inst.B.dfg)) = Dfg.variables inst.B.dfg)

let scheduler_asap () =
  let problem =
    {
      Scheduler.name = "p";
      ops = [ op "x" Op.Add "a" "b" "c"; op "y" Op.Add "c" "b" "d" ];
      inputs = [ "a"; "b" ];
      outputs = [ "d" ];
    }
  in
  let s = Scheduler.asap problem in
  check (Alcotest.option Alcotest.int) "x at 1" (Some 1) (List.assoc_opt "x" s);
  check (Alcotest.option Alcotest.int) "y at 2" (Some 2) (List.assoc_opt "y" s)

let scheduler_alap () =
  let problem =
    {
      Scheduler.name = "p";
      ops = [ op "x" Op.Add "a" "b" "c"; op "y" Op.Add "c" "b" "d"; op "z" Op.Add "a" "a" "e" ];
      inputs = [ "a"; "b" ];
      outputs = [ "d"; "e" ];
    }
  in
  let s = Scheduler.alap problem ~latency:3 in
  check (Alcotest.option Alcotest.int) "y as late as possible" (Some 3) (List.assoc_opt "y" s);
  check (Alcotest.option Alcotest.int) "x before y" (Some 2) (List.assoc_opt "x" s);
  check (Alcotest.option Alcotest.int) "independent op slides" (Some 3) (List.assoc_opt "z" s);
  match Scheduler.alap problem ~latency:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "latency below critical path accepted"

let prop_list_schedule_valid =
  QCheck.Test.make ~name:"list schedule respects deps and resources" ~count:50
    QCheck.(pair (int_bound 10_000) (int_range 1 3))
    (fun (seed, budget) ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let problem =
        {
          Scheduler.name = "p";
          ops = inst.B.dfg.Dfg.ops;
          inputs = inst.B.dfg.Dfg.inputs;
          outputs = inst.B.dfg.Dfg.outputs;
        }
      in
      let resources = List.map (fun k -> (k, budget)) Op.all_kinds in
      let s = Scheduler.list_schedule problem ~resources in
      (* to_dfg re-validates dependencies *)
      let d = Scheduler.to_dfg problem s in
      (* resource bound per kind per step *)
      List.for_all
        (fun step ->
          List.for_all
            (fun kind ->
              List.length
                (List.filter (fun (o : Op.t) -> o.kind = kind) (Dfg.ops_in_step d step))
              <= budget)
            Op.all_kinds)
        (Bistpath_util.Listx.range 1 (Dfg.num_csteps d + 1)))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "op kinds" op_kinds;
    case "operands dedup" operands_dedup;
    case "dfg accessors" dfg_accessors;
    case "kind counts" dfg_kind_counts;
  ]
  @ validation_cases
  @ [
      case "massign variable sets (ex1)" massign_sets;
      case "massign temporal multiplicity" massign_tm;
      case "massign validation" massign_validation;
      case "massign describe" massign_describe;
      case "parser round-trip" parser_roundtrip;
      case "parser errors" parser_errors;
      case "validation errors carry lines" validation_errors_carry_lines;
      case "parser comments/whitespace" parser_comments_and_whitespace;
      case "scheduler asap" scheduler_asap;
      case "scheduler alap" scheduler_alap;
    ]
  @ qcheck [ prop_parser_roundtrip_random; prop_list_schedule_valid ]
  @ [
      expects_invalid "output is an unread input" (fun () ->
          Dfg.make ~name:"bad"
            ~ops:[ op "x" Op.Add "a" "b" "d" ]
            ~inputs:[ "a"; "b"; "e" ] ~outputs:[ "e"; "d" ]
            ~schedule:[ ("x", 1) ]);
    ]
