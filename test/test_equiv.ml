(* Parse-back structural equivalence and simulation cross-check. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Verilog = Bistpath_rtl.Verilog
module Equiv = Bistpath_rtl.Equiv
module Parser = Bistpath_rtl.Parser
module Dfg_parser = Bistpath_dfg.Parser
module Module_assign = Bistpath_core.Module_assign
module Policy = Bistpath_dfg.Policy
module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Interp = Bistpath_datapath.Interp

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let testable = Flow.Testable Bistpath_core.Testable_alloc.default_options

let run_flow style inst =
  Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy

let full_rtl ?(width = 8) ?bist ?sessions dp = Verilog.source ~width ?bist ?sessions dp

let expect_clean name r =
  match r with
  | Error diags ->
    Alcotest.failf "%s: unparsable: %s"
      name
      (String.concat "; "
         (List.map Bistpath_resilience.Diagnostic.to_string diags))
  | Ok (rep : Equiv.report) ->
    check Alcotest.(list string) (name ^ " structural") [] rep.Equiv.structural;
    (match rep.Equiv.functional with
    | None -> ()
    | Some m ->
      Alcotest.failf "%s: functional mismatch on %s (expected %d got %d)" name
        m.Equiv.output m.Equiv.expected m.Equiv.actual)

let round_trip_variants name (r : Flow.result) =
  let dp = r.Flow.datapath in
  expect_clean (name ^ "/plain")
    (Equiv.verify ~rtl:(full_rtl dp) dp);
  expect_clean (name ^ "/bist")
    (Equiv.verify ~bist:r.Flow.bist ~rtl:(full_rtl ~bist:r.Flow.bist dp) dp);
  expect_clean (name ^ "/sessions")
    (Equiv.verify ~bist:r.Flow.bist ~sessions:r.Flow.sessions
       ~rtl:(full_rtl ~bist:r.Flow.bist ~sessions:r.Flow.sessions dp)
       dp)

let round_trip_ex1 () = round_trip_variants "ex1" (run_flow testable (B.ex1 ()))

let round_trip_all_benchmarks () =
  List.iter
    (fun tag ->
      let inst = Option.get (B.by_tag tag) in
      List.iter
        (fun (sname, style) ->
          round_trip_variants
            (Printf.sprintf "%s/%s" tag sname)
            (run_flow style inst))
        [ ("testable", testable); ("traditional", Flow.Traditional) ])
    B.all_tags

let data_dfgs () =
  let dir =
    let up = Filename.concat Filename.parent_dir_name "data" in
    if Sys.file_exists up then up else "data"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dfg")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let round_trip_data_dfgs () =
  List.iter
    (fun path ->
      let text = read_file path in
      let dfg =
        match Dfg_parser.parse_string text with
        | Ok u -> (
          match Dfg_parser.to_dfg u with
          | Ok dfg -> dfg
          | Error e -> Alcotest.failf "%s: to_dfg: %s" path e)
        | Error e -> Alcotest.failf "%s: parse: %s" path e
      in
      let massign = Module_assign.single_function dfg in
      List.iter
        (fun (sname, style) ->
          let r = Flow.run ~style dfg massign ~policy:Policy.default in
          round_trip_variants
            (Printf.sprintf "%s/%s" (Filename.basename path) sname)
            r)
        [ ("testable", testable); ("traditional", Flow.Traditional) ])
    (data_dfgs ())

(* --- seeded mutations: each must be caught, never crash ------------- *)

let contains line needle =
  let nl = String.length needle in
  let rec find i =
    i + nl <= String.length line && (String.sub line i nl = needle || find (i + 1))
  in
  find 0

(* swap the .a/.b operand wires on the first subtractor instance *)
let mutate_swap_operands rtl =
  let lines = String.split_on_char '\n' rtl in
  let swapped = ref false in
  let swap line =
    (* "  dp_sub #(.WIDTH(8)) u_X (.a(l_X), .b(r_X), .y(out_X));" *)
    let buf = Buffer.create (String.length line) in
    let n = String.length line in
    let i = ref 0 in
    while !i < n do
      if !i + 4 <= n && String.sub line !i 4 = ".a(l" then begin
        Buffer.add_string buf ".a(r";
        i := !i + 4
      end
      else if !i + 4 <= n && String.sub line !i 4 = ".b(r" then begin
        Buffer.add_string buf ".b(l";
        i := !i + 4
      end
      else begin
        Buffer.add_char buf line.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  let lines =
    List.map
      (fun line ->
        (* only the instantiation line, not the primitive's definition *)
        if contains line "dp_sub" && contains line ".a(l" && not !swapped then begin
          swapped := true;
          swap line
        end
        else line)
      lines
  in
  if not !swapped then Alcotest.fail "mutation: no dp_sub instance to swap";
  String.concat "\n" lines

(* drop a register-input assign (a complete single-line one, so the
   mutant is still parsable and the miss is structural, not syntactic) *)
let mutate_drop_wire rtl =
  let lines = String.split_on_char '\n' rtl in
  let dropped = ref false in
  let keep line =
    let n = String.length line in
    if
      (not !dropped)
      && n > 11
      && String.sub line 0 11 = "  assign d_"
      && line.[n - 1] = ';'
    then begin
      dropped := true;
      false
    end
    else true
  in
  let lines = List.filter keep lines in
  if not !dropped then Alcotest.fail "mutation: no assign d_* line to drop";
  String.concat "\n" lines

(* [from] replaced by [to_] once; a missing [from] fails the test, so an
   emitter change cannot turn a mutant into the clean text unnoticed *)
let replace ~from ~to_ rtl =
  let n = String.length from in
  let rec find i =
    if i + n > String.length rtl then Alcotest.failf "mutation: %S not found" from
    else if String.sub rtl i n = from then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub rtl 0 i ^ to_ ^ String.sub rtl (i + n) (String.length rtl - i - n)

(* widen the first data output port by one bit *)
let mutate_widen_port = replace ~from:"output wire [7:0] pout_" ~to_:"output wire [8:0] pout_"

let find_sub_instance () =
  (* Tseng1 has a dedicated subtractor *)
  run_flow testable (Option.get (B.by_tag "Tseng1"))

(* The emitted-RTL mutant corpus, on the testable flow: each row names
   the design, the variant it mutates (plain, BIST registers, BIST
   registers plus session steering) and the mutation. The first three
   run on Tseng1 for its dedicated subtractor; the text-level rows match
   Paulin's emitted RTL. *)
let mutants =
  [
    ("swapped operands", "Tseng1", `Plain, mutate_swap_operands);
    ("dropped wire", "Tseng1", `Plain, mutate_drop_wire);
    ("widened port", "Tseng1", `Plain, mutate_widen_port);
    ( "dropped enable term",
      "Paulin",
      `Plain,
      replace ~from:"en_R2 = (step == 3'd1) || (step == 3'd2) || (step == 3'd3);"
        ~to_:"en_R2 = (step == 3'd1) || (step == 3'd2);" );
    ( "wrong mux-select constant",
      "Paulin",
      `Plain,
      replace ~from:"step == 3'd1 ? 1'd0 :" ~to_:"step == 3'd1 ? 1'd1 :" );
    ( "off-by-one step compare",
      "Paulin",
      `Plain,
      replace ~from:"en_R1 = (step == 3'd1);" ~to_:"en_R1 = (step == 3'd2);" );
    ( "changed NUM_STEPS",
      "Paulin",
      `Plain,
      replace ~from:"localparam NUM_STEPS = 4;" ~to_:"localparam NUM_STEPS = 5;" );
    ("wrong SEED parameter", "Paulin", `Bist, replace ~from:".SEED(8'd241)" ~to_:".SEED(8'd242)");
    ( "swapped session decode",
      "Paulin",
      `Sessions,
      replace
        ~from:
          "(test_mode && test_session == 2'd0) ? 2'd0 :\n\
          \    (test_mode && test_session == 2'd1) ? 2'd1 :"
        ~to_:
          "(test_mode && test_session == 2'd1) ? 2'd0 :\n\
          \    (test_mode && test_session == 2'd0) ? 2'd1 :" );
    ( "two-wire combinational loop",
      "Paulin",
      `Plain,
      fun rtl ->
        rtl
        |> replace ~from:"assign d_R1 = out_MUL2;" ~to_:"assign d_R1 = out_MUL2 ^ d_R3;"
        |> replace ~from:"assign d_R3 = out_MUL1;" ~to_:"assign d_R3 = out_MUL1 ^ d_R1;" );
  ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The verdict lines {!Equiv.verify} reports on a mutant. *)
let mutant_verdict tag variant mutate =
  let r = run_flow testable (Option.get (B.by_tag tag)) in
  let dp = r.Flow.datapath in
  let bist, sessions =
    match variant with
    | `Plain -> (None, None)
    | `Bist -> (Some r.Flow.bist, None)
    | `Sessions -> (Some r.Flow.bist, Some r.Flow.sessions)
  in
  let result = Equiv.verify ?bist ?sessions ~rtl:(mutate (full_rtl ?bist ?sessions dp)) dp in
  (match result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "mutant is unparsable");
  List.map Equiv.line (Equiv.verdict result)

(* Each mutant is caught structurally (at least one RTL005 parse-back
   mismatch, whatever the vectors find) and reported only in the shared
   verdict text. *)
let mutant_caught tag variant mutate () =
  let lines = mutant_verdict tag variant mutate in
  check Alcotest.bool "caught structurally" true
    (List.exists (starts_with "RTL005 parse-back mismatch: ") lines);
  List.iter
    (fun l ->
      if
        not
          (starts_with "RTL005 parse-back mismatch: " l
          || starts_with "EQ002 parsed RTL disagrees with the interpreter on output " l)
      then Alcotest.failf "not the shared verdict text: %s" l)
    lines

(* test/fixtures/equiv_verdicts.txt pins every verdict line of the
   corpus, under a "# <mutant>" header per row, so a change to the
   matcher shows up as a line diff of the text users read. *)
let render_verdicts () =
  String.concat ""
    (List.concat_map
       (fun (name, tag, variant, mutate) ->
         ("# " ^ name ^ "\n")
         :: List.map (fun l -> l ^ "\n") (mutant_verdict tag variant mutate))
       mutants)

let verdicts_reproduce_fixture () =
  let expected =
    In_channel.with_open_text (Filename.concat "fixtures" "equiv_verdicts.txt")
      In_channel.input_all
  in
  Test_regalloc_trace.first_diff 1
    (String.split_on_char '\n' expected, String.split_on_char '\n' (render_verdicts ()))

(* every [from] replaced by [to_] *)
let replace_all ~from ~to_ s =
  let n = String.length from and len = String.length s in
  let b = Buffer.create len in
  let rec go i =
    if i + n > len then Buffer.add_substring b s i (len - i)
    else if String.sub s i n = from then begin
      Buffer.add_string b to_;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Registers are paired by structure alone: Paulin's committed BIST +
   sessions RTL with two register instances moved to the end of the
   module and two registers renamed (instance and wires) still verifies
   clean. *)
let pairing_ignores_names_and_order () =
  let r = run_flow testable (Option.get (B.by_tag "Paulin")) in
  let golden = read_file (Filename.concat (Filename.concat ".." "golden") "Paulin__testable.v") in
  let moved l = List.exists (fun inst -> contains l (" " ^ inst ^ " (.clk(")) [ "R1"; "IN_x" ] in
  let lines = String.split_on_char '\n' golden in
  let tail = List.filter moved lines in
  check Alcotest.int "instance lines moved" 2 (List.length tail);
  (* the datapath module is the file's last *)
  let rec insert = function
    | "endmodule" :: rest when not (List.mem "endmodule" rest) -> tail @ ("endmodule" :: rest)
    | l :: rest -> l :: insert rest
    | [] -> Alcotest.fail "no endmodule"
  in
  let rtl =
    String.concat "\n" (insert (List.filter (fun l -> not (moved l)) lines))
    |> replace_all ~from:"_R1" ~to_:"_acc_a"
    |> replace_all ~from:" R1 (" ~to_:" acc_a ("
    |> replace_all ~from:"_R3" ~to_:"_acc_b"
    |> replace_all ~from:" R3 (" ~to_:" acc_b ("
  in
  check Alcotest.bool "no old register name left" false (contains rtl "R1" || contains rtl "R3");
  expect_clean "reordered, renamed Paulin"
    (Equiv.verify ~bist:r.Flow.bist ~sessions:r.Flow.sessions ~rtl r.Flow.datapath)

let unparsable_is_diagnosed () =
  let r = find_sub_instance () in
  let dp = r.Flow.datapath in
  match Equiv.verify ~rtl:"module ( junk junk\nwire [ = ;\n" dp with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error diags ->
    check Alcotest.bool "diagnostics accumulated" true (List.length diags >= 1)

(* --- emitter regressions ------------------------------------------- *)

let sanitize_is_injective_on_punctuation () =
  check Alcotest.bool "*1 vs +1" true
    (Verilog.sanitize "*1" <> Verilog.sanitize "+1");
  check Alcotest.string "alphanumerics unchanged" "q_R1" (Verilog.sanitize "q_R1")

(* fir8's greedy binder names units "*1"/"+1"; before hex-escaping both
   collapsed to "_1" and the emitted netlist had doubly-driven wires *)
let fir8_has_no_duplicate_wires () =
  let r = run_flow testable (Option.get (B.by_tag "fir8")) in
  let rtl = full_rtl r.Flow.datapath in
  let p = Parser.parse rtl in
  check Alcotest.(list string) "parses clean" []
    (List.map Bistpath_resilience.Diagnostic.to_string (Parser.errors p));
  expect_clean "fir8 round-trip" (Equiv.verify ~rtl r.Flow.datapath)

let digit_leading_name_is_escaped () =
  let inst = Option.get (B.by_tag "ex1") in
  let dfg = { inst.B.dfg with Bistpath_dfg.Dfg.name = "9designs" } in
  let r = Flow.run ~style:testable dfg inst.B.massign ~policy:inst.B.policy in
  let dp = r.Flow.datapath in
  let rtl = full_rtl dp in
  check Alcotest.bool "escaped module name emitted" true
    (let needle = "module \\9designs_datapath " in
     let nl = String.length needle in
     let rec go i =
       i + nl <= String.length rtl && (String.sub rtl i nl = needle || go (i + 1))
     in
     go 0);
  expect_clean "digit-leading round-trip" (Equiv.verify ~rtl dp)

let width1_less_round_trips () =
  (* Paulin's ALUs carry multiple kinds; at width 1 the old emitter
     printed an illegal zero-width literal for Less paddings *)
  let inst = Option.get (B.by_tag "Tseng2") in
  let r = run_flow testable inst in
  let dp = r.Flow.datapath in
  let rtl = full_rtl ~width:1 dp in
  check Alcotest.bool "no zero-width literal" true
    (let needle = "{0'd0" in
     let nl = String.length needle in
     let rec go i =
       i + nl > String.length rtl || (String.sub rtl i nl <> needle && go (i + 1))
     in
     go 0);
  expect_clean "width-1 round-trip" (Equiv.verify ~width:1 ~rtl dp)

(* --- the real binary: verify's exit-code protocol ------------------- *)

let synth_exe =
  Filename.concat Filename.parent_dir_name (Filename.concat "bin" "synth.exe")

let run_synth args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process synth_exe
      (Array.of_list (synth_exe :: args))
      Unix.stdin null null
  in
  Unix.close null;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmpdir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "bistpath-equiv-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let cli_verify_exit_codes () =
  let d = tmpdir () in
  let rtl_path = Filename.concat d "candidate.v" in
  let clean = full_rtl (find_sub_instance ()).Flow.datapath in
  write_file rtl_path clean;
  check Alcotest.int "clean --rtl exits 0" 0
    (run_synth [ "verify"; "Tseng1"; "--flow"; "testable"; "--rtl"; rtl_path ]);
  write_file rtl_path (mutate_swap_operands clean);
  check Alcotest.int "mutated --rtl exits 2" 2
    (run_synth [ "verify"; "Tseng1"; "--flow"; "testable"; "--rtl"; rtl_path ]);
  write_file rtl_path "module ( junk junk\n";
  check Alcotest.int "garbage --rtl exits 4" 4
    (run_synth [ "verify"; "Tseng1"; "--flow"; "testable"; "--rtl"; rtl_path ]);
  rm_rf d

let cli_golden_lifecycle () =
  let d = tmpdir () in
  let g = Filename.concat d "golden" in
  check Alcotest.int "--update-golden exits 0" 0
    (run_synth [ "verify"; "ex1"; "--golden"; g; "--update-golden" ]);
  check Alcotest.int "fresh goldens match" 0
    (run_synth [ "verify"; "ex1"; "--golden"; g ]);
  let path = Filename.concat g "ex1__testable.v" in
  write_file path ("// tool banner churn\n" ^ read_file path);
  check Alcotest.int "comment churn is not drift" 0
    (run_synth [ "verify"; "ex1"; "--golden"; g ]);
  write_file path (mutate_widen_port (read_file path));
  check Alcotest.int "semantic drift exits 2" 2
    (run_synth [ "verify"; "ex1"; "--golden"; g ]);
  rm_rf d

(* [synth ARGS]'s exit code, stdout and stderr *)
let synth_capture args =
  let d = tmpdir () in
  let out_path = Filename.concat d "stdout" and err_path = Filename.concat d "stderr" in
  let open_out path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = open_out out_path and err = open_out err_path in
  let pid = Unix.create_process synth_exe (Array.of_list (synth_exe :: args)) Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  let stdout = read_file out_path and stderr = read_file err_path in
  rm_rf d;
  (code, stdout, stderr)

let synth_stderr args =
  let _, _, stderr = synth_capture args in
  stderr

(* The --stats span table's (name, depth, wall in ns, rounding bound in
   ns) rows, as printed by Telemetry.summary_table. *)
let span_rows table =
  List.filter_map
    (fun line ->
      match String.split_on_char '|' line with
      | [ ""; name; wall; _; _; "" ] -> (
        let rec indent i = if i < String.length name && name.[i] = ' ' then indent (i + 1) else i in
        let indent = indent 0 in
        match String.split_on_char ' ' (String.trim wall) with
        | [ x; unit ] -> (
          let scale, half =
            match unit with
            | "ns" -> (1., 0.5)
            | "us" -> (1e3, 50.)
            | "ms" -> (1e6, 5e3)
            | _ -> (1e9, 5e5)
          in
          match float_of_string_opt x with
          | Some x -> Some (String.trim name, (indent - 1) / 2, x *. scale, half)
          | None -> None)
        | _ -> None)
      | _ -> None)
    (String.split_on_char '\n' table)

(* Equiv.verify's layers show in --stats: rtl.parse, rtl.structural and
   rtl.functional directly under rtl.equiv, adding up to no more than
   it (up to the table's rounding). *)
let cli_verify_spans () =
  let rows =
    span_rows
      (synth_stderr [ "rtl"; Filename.concat ".." (Filename.concat "data" "fir32.dfg");
                      "--verify"; "--stats" ])
  in
  let rec under = function
    | ("rtl.equiv", d, total, half) :: rest ->
      let rec children acc = function
        | (name, d', ns, h) :: rest when d' > d ->
          children (if d' = d + 1 then (name, ns, h) :: acc else acc) rest
        | _ -> List.rev acc
      in
      (total, half, children [] rest)
    | _ :: rest -> under rest
    | [] -> Alcotest.fail "no rtl.equiv span"
  in
  let total, half, kids = under rows in
  check Alcotest.(list string) "children of rtl.equiv"
    [ "rtl.parse"; "rtl.structural"; "rtl.functional" ]
    (List.map (fun (n, _, _) -> n) kids);
  let sum = List.fold_left (fun acc (_, ns, _) -> acc +. ns) 0. kids in
  let slack = List.fold_left (fun acc (_, _, h) -> acc +. h) half kids in
  if sum > total +. slack then
    Alcotest.failf "children sum to %.0f ns, more than rtl.equiv's %.0f ns" sum total

(* --- the controller's capture rule ---------------------------------- *)

let fixture name = Filename.concat "fixtures" name

let load_dfg path =
  match Dfg_parser.parse_file path with
  | Error e -> Alcotest.failf "%s: parse: %s" path e
  | Ok u -> (
    match Dfg_parser.to_dfg u with
    | Ok dfg -> dfg
    | Error e -> Alcotest.failf "%s: to_dfg: %s" path e)

(* Output e is also a primary input, first read at step 2: it is loaded
   at the end of step 1 (Control.latch_step), and every reader samples
   its register then. A reader sampling at step 0 sees the register
   before the load and reports a false EQ002. *)
let passthrough_output () =
  let path = fixture "passthrough.dfg" in
  check Alcotest.int "verify exits 0 on both flows" 0 (run_synth [ "verify"; path ]);
  let dfg = load_dfg path in
  check Alcotest.int "e latches at the end of step 1" 1 (Control.latch_step dfg "e");
  let massign = Module_assign.single_function dfg in
  let rng = Bistpath_util.Prng.create 7 in
  let vectors =
    List.init 16 (fun _ ->
        List.map (fun v -> (v, Bistpath_util.Prng.int rng 256)) dfg.Bistpath_dfg.Dfg.inputs)
  in
  List.iter
    (fun style ->
      let dp = (Flow.run ~style dfg massign ~policy:Policy.default).Flow.datapath in
      let e =
        match Equiv.parse_back (full_rtl dp) with
        | Ok e -> e
        | Error _ -> Alcotest.fail "passthrough RTL is unparsable"
      in
      List.iter2
        (fun inputs sampled ->
          let expected = Bistpath_dfg.Eval.run dfg ~width:8 ~inputs in
          check Alcotest.(list (pair string int)) "Interp = Eval" expected
            (fst (Interp.run dp ~width:8 ~inputs));
          check Alcotest.(list (pair string int)) "RTL = Eval"
            (List.map (fun (v, _) -> ("pout_" ^ v, List.assoc v expected)) dp.Datapath.outputs)
            sampled)
        vectors
        (Equiv.simulate_vectors e dp ~width:8 vectors))
    [ testable; Flow.Traditional ];
  (* the testbench checks pout_e after the clock that ends step 1: the
     second step edge after reset is released *)
  let rc, tb, _ = synth_capture [ "tb"; path ] in
  check Alcotest.int "tb exits 0" 0 rc;
  let rec edges_before_check n = function
    | [] -> Alcotest.fail "no check of pout_e"
    | line :: rest ->
      if contains line "if (pout_e !==" then n
      else if String.trim line = "@(posedge clk); #1;" then edges_before_check (n + 1) rest
      else edges_before_check n rest
  in
  let rec after_release = function
    | [] -> Alcotest.fail "no reset release"
    | line :: rest -> if contains line "#1 rst = 1'b0;" then rest else after_release rest
  in
  check Alcotest.int "pout_e sampled after the load cycle" 2
    (edges_before_check 0 (after_release (String.split_on_char '\n' tb)))

(* An output that is an input no operation reads has no register; it is
   rejected at validation (exit 4) instead of crashing the data path
   builder (exit 125). *)
let unread_input_output () =
  let path = fixture "unread_output.dfg" in
  List.iter
    (fun cmd ->
      let rc, _, err = synth_capture [ cmd; path ] in
      check Alcotest.int (cmd ^ " exits 4") 4 rc;
      check Alcotest.bool (cmd ^ " names the output") true
        (contains err "error: Dfg unread_output: primary output e is an input no operation reads"))
    [ "run"; "check"; "verify" ]

(* Equiv elaborates exactly the primitives the emitter declares. *)
let primitive_vocabulary () =
  let parsed = Parser.parse (Verilog.primitives ~width:8) in
  check Alcotest.int "primitives parse" 0 (List.length (Parser.errors parsed));
  check Alcotest.(list string) "declared = recognised"
    (List.sort compare Equiv.primitive_names)
    (List.sort compare (List.map (fun (m : Parser.module_) -> m.Parser.name) parsed.Parser.modules))

let suite =
  [
    case "round-trip ex1" round_trip_ex1;
    case "round-trip all benchmarks" round_trip_all_benchmarks;
    case "round-trip data/*.dfg both flows" round_trip_data_dfgs;
  ]
  @ List.map
      (fun (name, tag, variant, mutate) ->
        case (Printf.sprintf "mutation: %s caught" name) (mutant_caught tag variant mutate))
      mutants
  @ [
    case "mutant verdicts reproduce the fixture" verdicts_reproduce_fixture;
    case "pairing ignores register names and instance order" pairing_ignores_names_and_order;
    case "unparsable RTL yields diagnostics" unparsable_is_diagnosed;
    case "sanitize is injective on punctuation" sanitize_is_injective_on_punctuation;
    case "fir8 netlist has no duplicate wires" fir8_has_no_duplicate_wires;
    case "digit-leading design name escaped" digit_leading_name_is_escaped;
    case "width-1 Less round-trips" width1_less_round_trips;
    case "binary: verify --rtl exit codes (0/2/4)" cli_verify_exit_codes;
    case "binary: golden lifecycle (update, churn, drift)" cli_golden_lifecycle;
    case "binary: rtl --verify --stats spans its layers" cli_verify_spans;
    case "pass-through output samples after its load" passthrough_output;
    case "binary: unread-input output exits 4" unread_input_output;
    case "primitive vocabulary matches the emitter" primitive_vocabulary;
  ]
