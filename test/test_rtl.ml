(* Tests for the Verilog and DOT emitters. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Verilog = Bistpath_rtl.Verilog
module Dot = Bistpath_rtl.Dot
module Datapath = Bistpath_datapath.Datapath
module Resource = Bistpath_bist.Resource
module Parser = Bistpath_rtl.Parser
module Diagnostic = Bistpath_resilience.Diagnostic

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let count_occurrences haystack needle =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length haystack then acc
    else if String.sub haystack i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let run inst =
  Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
    inst.B.dfg inst.B.massign ~policy:inst.B.policy

let verilog_plain () =
  let r = run (B.ex1 ()) in
  let v = Verilog.emit r.Flow.datapath in
  check Alcotest.bool "module header" true (contains v "module ex1_datapath");
  check Alcotest.bool "plain registers only" true (contains v "dp_register");
  check Alcotest.bool "no test mode port" false (contains v "test_mode");
  check Alcotest.bool "adder instantiated" true (contains v "dp_add");
  check Alcotest.bool "multiplier instantiated" true (contains v "dp_mul");
  check Alcotest.bool "ends properly" true (contains v "endmodule");
  (* one register instance per register *)
  check Alcotest.int "3 registers" 3 (count_occurrences v "dp_register #")

let verilog_bist () =
  let r = run (B.ex1 ()) in
  let v = Verilog.emit ~bist:r.Flow.bist r.Flow.datapath in
  check Alcotest.bool "test mode port" true (contains v "test_mode");
  check Alcotest.bool "cbilbo instantiated" true (contains v "cbilbo_register #");
  check Alcotest.bool "tpg instantiated" true (contains v "tpg_register #");
  check Alcotest.int "one plain register left" 1 (count_occurrences v "dp_register #")

let verilog_primitives_balanced () =
  let p = Verilog.primitives ~width:8 in
  check Alcotest.int "balanced modules"
    (count_occurrences p "\nendmodule" + count_occurrences p "endmodule\n")
    (2 * count_occurrences p "module ")
  |> ignore;
  (* simpler check: every primitive name appears *)
  List.iter
    (fun m -> check Alcotest.bool m true (contains p ("module " ^ m)))
    [
      "dp_register"; "tpg_register"; "sa_register"; "bilbo_register";
      "cbilbo_register"; "dp_add"; "dp_sub"; "dp_mul"; "dp_div"; "dp_and";
      "dp_or"; "dp_xor"; "dp_less";
    ]

let verilog_alu_inline () =
  let r = run (B.tseng2 ()) in
  let v = Verilog.emit r.Flow.datapath in
  check Alcotest.bool "one-hot function select" true (contains v "fsel_ALU1");
  check Alcotest.bool "division guarded" true (contains v "== 0 ?")

let verilog_deterministic () =
  let r = run (B.paulin ()) in
  check Alcotest.string "stable output" (Verilog.emit r.Flow.datapath)
    (Verilog.emit r.Flow.datapath)

let verilog_carried_ports () =
  let r = run (B.paulin ()) in
  let v = Verilog.emit r.Flow.datapath in
  (* dedicated input register and its pin *)
  check Alcotest.bool "pin x" true (contains v "pin_x");
  check Alcotest.bool "IN_x register" true (contains v "q_IN_x");
  (* primary outputs *)
  check Alcotest.bool "pout x1" true (contains v "pout_x1")

let dot_datapath () =
  let r = run (B.ex1 ()) in
  let d = Dot.of_datapath ~bist:r.Flow.bist r.Flow.datapath in
  check Alcotest.bool "digraph" true (contains d "digraph datapath");
  List.iter
    (fun (reg : Datapath.reg) ->
      check Alcotest.bool reg.Datapath.rid true (contains d ("\"" ^ reg.Datapath.rid ^ "\"")))
    r.Flow.datapath.Datapath.regs;
  check Alcotest.bool "style label" true (contains d "[CBILBO]");
  check Alcotest.bool "port labels" true (contains d "label=\"L\"")

let dot_dfg () =
  let inst = B.ex1 () in
  let d = Dot.of_dfg inst.B.dfg in
  check Alcotest.bool "digraph" true (contains d "digraph dfg");
  check Alcotest.bool "rank groups" true (contains d "rank=same");
  check Alcotest.bool "op labels" true (contains d "\"+1\"");
  check Alcotest.bool "input pins" true (contains d "in_a");
  check Alcotest.bool "output pins" true (contains d "out_h")

let sanitization () =
  (* unit ids and dfg names with odd characters must not leak *)
  let inst = B.tseng1 () in
  let r = run inst in
  let v = Verilog.emit r.Flow.datapath in
  (* Tseng's OR unit is called "OR": appears sanitized as-is *)
  check Alcotest.bool "unit OR" true (contains v "u_OR");
  check Alcotest.bool "no stray |" false (contains v "out_|")

let testbench_structure () =
  let r = run (B.ex1 ()) in
  let rng = Bistpath_util.Prng.create 3 in
  let vectors = Bistpath_rtl.Testbench.random_vectors rng r.Flow.datapath ~width:8 ~count:3 in
  let tb = Bistpath_rtl.Testbench.generate r.Flow.datapath ~vectors in
  check Alcotest.bool "module" true (contains tb "module ex1_datapath_tb");
  check Alcotest.bool "instantiates dut" true (contains tb "ex1_datapath dut");
  check Alcotest.bool "clock" true (contains tb "always #5 clk = ~clk;");
  check Alcotest.int "3 vectors" 3 (count_occurrences tb "// vector");
  check Alcotest.bool "pass message" true (contains tb "PASS: 3 vectors");
  (* expected values come from the behavioural evaluator *)
  let inputs = List.hd vectors in
  let expected = Bistpath_dfg.Eval.run r.Flow.datapath.Datapath.dfg ~width:8 ~inputs in
  List.iter
    (fun (v, x) ->
      check Alcotest.bool (v ^ " expectation present") true
        (contains tb (Printf.sprintf "pout_%s !== 8'd%d" v x)))
    expected

let testbench_expectations_match_interp () =
  (* the testbench's golden values and the interpreter agree by
     construction (both come from Eval); sanity-check one vector *)
  let r = run (B.paulin ()) in
  let inputs = [ ("x", 5); ("y", 6); ("u", 70); ("dx", 2); ("a", 10); ("c3", 3) ] in
  let tb = Bistpath_rtl.Testbench.generate r.Flow.datapath ~vectors:[ inputs ] in
  let outs, _ = Bistpath_datapath.Interp.run r.Flow.datapath ~width:8 ~inputs in
  List.iter
    (fun (v, x) ->
      check Alcotest.bool (v ^ " matches interp") true
        (contains tb (Printf.sprintf "pout_%s !== 8'd%d" v x)))
    outs

let testbench_incomplete_vector_rejected () =
  let r = run (B.ex1 ()) in
  match Bistpath_rtl.Testbench.generate r.Flow.datapath ~vectors:[ [ ("a", 1) ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incomplete vector accepted"

let signature_taps_exposed () =
  let r = run (B.ex1 ()) in
  let v = Verilog.emit ~bist:r.Flow.bist r.Flow.datapath in
  (* the CBILBO register's compactor rank is exported *)
  check Alcotest.bool "sig output port" true (contains v "output wire [7:0] sig_");
  check Alcotest.bool "cbilbo wired to tap" true (contains v ".sig_out(sig_");
  (* plain emission has no taps *)
  let plain = Verilog.emit r.Flow.datapath in
  check Alcotest.bool "no taps without bist" false (contains plain "sig_")

let wrapper_structure () =
  let r = run (B.paulin ()) in
  let w =
    Bistpath_rtl.Bist_wrapper.emit r.Flow.datapath r.Flow.bist r.Flow.sessions
  in
  check Alcotest.bool "module name" true (contains w "module paulin_bist");
  check Alcotest.bool "instantiates datapath" true (contains w "paulin_datapath dut");
  check Alcotest.bool "golden parameters" true (contains w "GOLDEN_S0_");
  check Alcotest.bool "session fsm" true (contains w "S_CHECK");
  check Alcotest.bool "pass output" true (contains w "output reg  pass");
  (* one NSESSIONS constant matching the schedule *)
  check Alcotest.bool "session count" true
    (contains w
       (Printf.sprintf "localparam NSESSIONS = %d;"
          (Bistpath_bist.Session.num_sessions r.Flow.sessions)));
  (* pins tied off during self-test *)
  check Alcotest.bool "pins tied" true (contains w "pin_x = {8{1'b0}}")

let wrapper_deterministic () =
  let r = run (Option.get (B.by_tag "ex2")) in
  let mk () = Bistpath_rtl.Bist_wrapper.emit r.Flow.datapath r.Flow.bist r.Flow.sessions in
  check Alcotest.string "stable" (mk ()) (mk ())

(* --- lexer diagnostics ------------------------------------------------ *)

let parse_diags src = List.map Diagnostic.to_string (Parser.parse src).Parser.diagnostics

let expect_diags name src expected =
  check Alcotest.(list string) name expected (parse_diags src)

let items src =
  match (Parser.parse src).Parser.modules with
  | [ m ] -> m.Parser.items
  | ms -> Alcotest.failf "expected one module, got %d" (List.length ms)

let unterminated_comment () =
  expect_diags "comment" "module m;\n/* never\nclosed\n"
    [ "line 4: error: unterminated block comment";
      "line 4: error: missing 'endmodule' for module \"m\"" ]

let unterminated_string () =
  expect_diags "string" "module m;\ninitial $display(\"abc\n"
    [ "line 3: error: unterminated string literal";
      "line 3: error: expected an expression, found end of input";
      "line 3: error: missing 'endmodule' for module \"m\"" ]

let empty_escaped_identifier () =
  expect_diags "escape" "module m;\nwire \\ x;\nendmodule\n"
    [ "line 2: error: empty escaped identifier" ]

let number_diagnostics () =
  let lp lit = Printf.sprintf "module m;\nlocalparam A = %s;\nendmodule\n" lit in
  expect_diags "unknown base" (lp "4'q1") [ "line 2: error: unknown number base 'q'" ];
  expect_diags "no digits" (lp "4'h") [ "line 2: error: number literal has no digits" ];
  expect_diags "zero width" (lp "0'd1") [ "line 2: error: zero-width sized literal" ];
  expect_diags "base at end of input" "module m;\n4'"
    [ "line 2: error: unknown number base '?'";
      "line 2: error: number literal has no digits";
      "line 2: error: expected a module item, found number 0";
      "line 2: error: missing 'endmodule' for module \"m\"" ];
  expect_diags "too many bits" (lp "8'hFFFFFFFFFFFFFFFFFFFF")
    [ "line 2: error: bad number literal \"FFFFFFFFFFFFFFFFFFFF\"" ];
  expect_diags "a digit beyond the base" (lp "2'b12")
    [ "line 2: error: bad number literal \"12\"" ]

(* A tick that starts no based literal is an unexpected character. *)
let stray_tick () =
  expect_diags "tick" "module m;\nlocalparam A = ' 1;\nendmodule\n"
    [ "line 2: error: unexpected character '\\''" ];
  expect_diags "tick at end" "module m;\n'"
    [ "line 2: error: unexpected character '\\''";
      "line 2: error: missing 'endmodule' for module \"m\"" ]

let unexpected_character () =
  expect_diags "control byte" "module m;\nwire a;\nassign a = 1 \001;\nendmodule\n"
    [ "line 3: error: unexpected character '\\001'" ]

(* Case (in)equality folds onto plain (in)equality. *)
let case_equality_folds () =
  let a = Parser.Ident "a" and b = Parser.Ident "b" in
  match items "module m;\nassign y = a === b;\nassign z = a !== b;\nassign w = a ==\nb;\nendmodule" with
  | [ Parser.Assign { rhs = r1; _ }; Parser.Assign { rhs = r2; _ }; Parser.Assign { rhs = r3; _ } ] ->
    check Alcotest.bool "===" true (r1 = Parser.Binop (Parser.Eq, a, b));
    check Alcotest.bool "!==" true (r2 = Parser.Binop (Parser.Neq, a, b));
    check Alcotest.bool "== across a newline" true (r3 = Parser.Binop (Parser.Eq, a, b))
  | _ -> Alcotest.fail "expected three assigns"

(* An escaped identifier never matches a keyword. *)
let escaped_keyword () =
  let src = "module m;\nwire \\module ;\nassign \\module = \\endmodule ;\nendmodule\n" in
  check Alcotest.(list string) "clean" [] (parse_diags src);
  match items src with
  | [ Parser.Decl { names = [ ("module", None) ]; _ }; Parser.Assign { lhs = "module"; rhs; _ } ] ->
    check Alcotest.bool "rhs" true (rhs = Parser.Ident "endmodule")
  | _ -> Alcotest.fail "escaped keywords not read as names"

let underscores_in_numbers () =
  let src = "module m;\nlocalparam A = 8'b1010_0101, B = 1_000, C = 1_6'd3, D = 'h_f_;\nendmodule\n" in
  check Alcotest.(list string) "clean" [] (parse_diags src);
  let values =
    List.filter_map
      (function Parser.Localparam { name; value; _ } -> Some (name, value) | _ -> None)
      (items src)
  in
  check Alcotest.bool "values" true
    (values
     = [ ("A", Parser.Num (Some 8, 165)); ("B", Parser.Num (None, 1000));
         ("C", Parser.Num (Some 16, 3)); ("D", Parser.Num (None, 15)) ])

(* Newlines inside block comments and strings still count. *)
let lines_across_comments_and_strings () =
  expect_diags "lines"
    "/* a\nb\n*/ module m;\n  initial $display(\"x\ny\");\n  wire ;\nendmodule\n"
    [ "line 6: error: expected an identifier, found \";\"" ];
  (match items "module m;\n/* x\n*/ wire a;\n// y\nassign a = 1;\nendmodule" with
  | [ Parser.Decl { dline; _ }; Parser.Assign { aline; _ } ] ->
    check Alcotest.(pair int int) "item lines" (3, 5) (dline, aline)
  | _ -> Alcotest.fail "expected a wire and an assign");
  (* a newline a backslash escapes inside a string still ends a line *)
  expect_diags "escaped newline"
    "module m;\ninitial $display(\"x\\\ny\");\nwire ;\nendmodule\n"
    [ "line 4: error: expected an identifier, found \";\"" ];
  (* so does a newline read as a number's base, which the diagnostic
     escapes, keeping it on one line *)
  let src = "module m;\nlocalparam A = 1'\n;\nwire ;\nendmodule\n" in
  expect_diags "newline as a number base" src
    [ "line 2: error: unknown number base '\\n'"; "line 2: error: number literal has no digits";
      "line 4: error: expected an identifier, found \";\"" ]

(* Binary operators bind by level, loosest first: ||, &&, |, ^, &,
   == and !=, the comparisons, the shifts, + and -, then the
   multiplicative ones; each level is left-associative, and ^ and -
   are also prefix operators. *)
let operator_precedence () =
  let id x = Parser.Ident x in
  let bin op a b = Parser.Binop (op, a, b) in
  let rhs src =
    match items (Printf.sprintf "module m;\nassign y = %s;\nendmodule\n" src) with
    | [ Parser.Assign { rhs; _ } ] -> rhs
    | _ -> Alcotest.fail ("expected one assign: " ^ src)
  in
  check Alcotest.bool "one of each level" true
    (rhs "a || b && c | d ^ e & f == g < h << i + j * k"
     = bin Parser.Lor (id "a")
         (bin Parser.Land (id "b")
            (bin Parser.Bor (id "c")
               (bin Parser.Bxor (id "d")
                  (bin Parser.Band (id "e")
                     (bin Parser.Eq (id "f")
                        (bin Parser.Lt (id "g")
                           (bin Parser.Shl (id "h")
                              (bin Parser.Add (id "i") (bin Parser.Mul (id "j") (id "k")))))))))));
  check Alcotest.bool "reversed" true
    (rhs "a * b + c >> d >= e != f & g ^ h | i && j || k"
     = bin Parser.Lor
         (bin Parser.Land
            (bin Parser.Bor
               (bin Parser.Bxor
                  (bin Parser.Band
                     (bin Parser.Neq
                        (bin Parser.Ge
                           (bin Parser.Shr (bin Parser.Add (bin Parser.Mul (id "a") (id "b")) (id "c")) (id "d"))
                           (id "e"))
                        (id "f"))
                     (id "g"))
                  (id "h"))
               (id "i"))
            (id "j"))
         (id "k"));
  check Alcotest.bool "left-associative" true
    (rhs "a - b - c % d / e" = bin Parser.Sub (bin Parser.Sub (id "a") (id "b"))
                                  (bin Parser.Div (bin Parser.Mod (id "c") (id "d")) (id "e")));
  check Alcotest.bool "prefix operators and the conditional" true
    (rhs "^a ^ -b[1] ? c : d ? e : f"
     = Parser.Cond
         ( bin Parser.Bxor (Parser.Unop (Parser.Rxor, id "a"))
             (Parser.Unop (Parser.Neg, Parser.Index (id "b", Parser.Num (None, 1)))),
           id "c",
           Parser.Cond (id "d", id "e", id "f") ))

(* An overflowing decimal literal or width is an error diagnostic with
   its line, like an overflowing based literal; parsing never raises. *)
let overflowing_literals () =
  expect_diags "decimal"
    "module m;\nlocalparam NUM_STEPS = 99999999999999999999999;\nendmodule\n"
    [ "line 2: error: bad number literal \"99999999999999999999999\"" ];
  expect_diags "width"
    "module m;\n\nlocalparam A = 99999999999999999999999999'd1;\nendmodule\n"
    [ "line 3: error: bad number literal \"99999999999999999999999999\"" ];
  expect_diags "largest decimal" "module m;\nlocalparam A = 4611686018427387903;\nendmodule\n" []

(* A 'module' keyword inside a module body ends that module with an
   error; the next module still parses. *)
let nested_module_keyword () =
  let p = Parser.parse "module a;\nwire x;\nmodule b;\nwire y;\nendmodule\n" in
  check Alcotest.(list string) "diagnostics"
    [ "line 3: error: missing 'endmodule' for module \"a\" before the next module" ]
    (List.map Diagnostic.to_string p.Parser.diagnostics);
  check Alcotest.(list string) "both modules" [ "a"; "b" ]
    (List.map (fun (m : Parser.module_) -> m.Parser.name) p.Parser.modules)

(* --- the parser against the string-token oracle --------------------- *)

module Prng = Bistpath_util.Prng

(* Byte edits aimed at the lexer: deletions, and insertions of the
   characters that open a literal, comment, escape or operator. *)
let inserts =
  [| "'"; "\\"; "/*"; "*/"; "\""; "`"; "//"; "\n"; " "; "("; ")"; ";"; "["; "]";
     "{"; "}"; "="; "=="; "==="; "!=="; "<"; "<="; ">>"; "#"; "@"; ","; ".";
     ":"; "?"; "&&"; "|"; "^"; "~"; "-"; "$"; "'h"; "8'd"; "0'b"; "_"; "\001";
     "99999999999999999999999"; "9223372036854775807"; "module"; "end" |]

let mutate rng text =
  let n = String.length text in
  let at = Prng.int rng (n + 1) in
  if Prng.int rng 3 = 0 then
    let len = min (1 + Prng.int rng 8) (n - at) in
    String.sub text 0 at ^ String.sub text (at + len) (n - at - len)
  else
    String.sub text 0 at ^ inserts.(Prng.int rng (Array.length inserts))
    ^ String.sub text at (n - at)


(* Equal ASTs and diagnostics, with no error cap. Where the oracle
   raises (an overflowing decimal literal) or would never return (a
   'module' inside a module body), an error diagnostic instead. *)
let agrees_with_oracle text =
  let p = Parser.parse ~max_errors:max_int text in
  if
    List.exists
      (fun (d : Diagnostic.t) -> contains d.Diagnostic.message "before the next module")
      p.Parser.diagnostics
  then Parser.errors p <> []
  else
    match Oracles.Rtl_parser.parse ~max_errors:max_int text with
    | o -> o.Parser.modules = p.Parser.modules && o.Parser.diagnostics = p.Parser.diagnostics
    | exception Failure _ -> Parser.errors p <> []

(* The two newlines the lexer reads inside another token, in both
   parsers. *)
let inner_newlines_match_oracle () =
  List.iter
    (fun src -> check Alcotest.bool (String.escaped src) true (agrees_with_oracle src))
    [ "module m;\ninitial $display(\"x\\\ny\");\nwire ;\nendmodule\n";
      "module m;\nlocalparam A = 1'\n;\nwire ;\nendmodule\n" ]

(* Past the lexer's initial sizes: more distinct names than the intern
   table's first 512, more tokens than a third of the bytes, and more
   literals than a sixteenth. *)
let dense_source_grows_tables () =
  let names = List.init 3000 (Printf.sprintf "n%d") in
  let src =
    Printf.sprintf "module m;\nwire %s;\nassign y = {%s};\nendmodule\n"
      (String.concat "," names)
      (String.concat "," (List.init 3000 (fun i -> string_of_int (i mod 10))))
  in
  check Alcotest.(list string) "clean" [] (parse_diags src);
  check Alcotest.bool "agrees with the oracle" true (agrees_with_oracle src);
  match items src with
  | [ Parser.Decl { names = ds; _ }; Parser.Assign { rhs = Parser.Concat es; _ } ] ->
    check Alcotest.(list string) "names" names (List.map fst ds);
    check Alcotest.int "literals" 3000 (List.length es)
  | _ -> Alcotest.fail "expected a wire and an assign"

let prop_matches_oracle =
  QCheck.Test.make ~name:"parse matches the string-token oracle" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:(4 + Prng.int rng 8) ~inputs:(2 + Prng.int rng 3) in
      let r = run inst in
      let dp = r.Flow.datapath and bist = r.Flow.bist and sessions = r.Flow.sessions in
      let width = [| 1; 4; 8; 16 |].(Prng.int rng 4) in
      let vectors = Bistpath_rtl.Testbench.random_vectors rng dp ~width ~count:2 in
      let texts =
        [ Verilog.source ~width dp; Verilog.source ~width ~bist ~sessions dp;
          Bistpath_rtl.Bist_wrapper.emit ~width dp bist sessions;
          Bistpath_rtl.Testbench.generate ~width dp ~vectors ]
      in
      List.for_all
        (fun text ->
          agrees_with_oracle text
          && List.for_all
               (fun edits ->
                 let t = ref text in
                 for _ = 1 to edits do t := mutate rng !t done;
                 agrees_with_oracle !t)
               [ 1; 1; 2; 4; 8 ])
        texts)

let suite =
  [
    case "signature taps exposed" signature_taps_exposed;
    case "bist wrapper structure" wrapper_structure;
    case "bist wrapper deterministic" wrapper_deterministic;
    case "testbench structure" testbench_structure;
    case "testbench matches interpreter" testbench_expectations_match_interp;
    case "testbench incomplete vector rejected" testbench_incomplete_vector_rejected;
    case "verilog plain datapath" verilog_plain;
    case "verilog BIST variants" verilog_bist;
    case "verilog primitives complete" verilog_primitives_balanced;
    case "verilog ALU inline functions" verilog_alu_inline;
    case "verilog deterministic" verilog_deterministic;
    case "verilog carried/dedicated ports" verilog_carried_ports;
    case "dot datapath" dot_datapath;
    case "dot dfg" dot_dfg;
    case "identifier sanitization" sanitization;
    case "lexer: unterminated block comment" unterminated_comment;
    case "lexer: unterminated string" unterminated_string;
    case "lexer: empty escaped identifier" empty_escaped_identifier;
    case "lexer: number literal diagnostics" number_diagnostics;
    case "lexer: stray tick" stray_tick;
    case "lexer: unexpected character" unexpected_character;
    case "lexer: === and !== fold" case_equality_folds;
    case "lexer: escaped keyword is a name" escaped_keyword;
    case "lexer: underscores in numbers" underscores_in_numbers;
    case "lexer: lines across comments" lines_across_comments_and_strings;
    case "lexer: inner newlines match the oracle" inner_newlines_match_oracle;
    case "parser: operator precedence" operator_precedence;
    case "lexer: overflowing literal" overflowing_literals;
    case "parser: module inside a module" nested_module_keyword;
    case "lexer: tables grow past their first sizes" dense_source_grows_tables;
    QCheck_alcotest.to_alcotest prop_matches_oracle;
  ]
