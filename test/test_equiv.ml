(* Parse-back structural equivalence and simulation cross-check. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Verilog = Bistpath_rtl.Verilog
module Equiv = Bistpath_rtl.Equiv
module Parser = Bistpath_rtl.Parser
module Dfg_parser = Bistpath_dfg.Parser
module Module_assign = Bistpath_core.Module_assign
module Policy = Bistpath_dfg.Policy

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

let structural_diffs name r =
  match r with
  | Error diags ->
    Alcotest.failf "%s: unexpectedly unparsable: %s" name
      (String.concat "; "
         (List.map Bistpath_resilience.Diagnostic.to_string diags))
  | Ok (rep : Equiv.report) -> rep.Equiv.structural

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
  let contains line needle =
    let nl = String.length needle in
    let rec find i =
      i + nl <= String.length line && (String.sub line i nl = needle || find (i + 1))
    in
    find 0
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

(* widen the first data output port by one bit *)
let mutate_widen_port rtl =
  let needle = "output wire [7:0] pout_" in
  let replacement = "output wire [8:0] pout_" in
  let nl = String.length needle in
  let rec find i =
    if i + nl > String.length rtl then None
    else if String.sub rtl i nl = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.fail "mutation: no 8-bit pout port found"
  | Some i ->
    String.sub rtl 0 i ^ replacement
    ^ String.sub rtl (i + nl) (String.length rtl - i - nl)

let find_sub_instance () =
  (* Tseng1 has a dedicated subtractor *)
  run_flow testable (Option.get (B.by_tag "Tseng1"))

let mutation_swapped_operands () =
  let r = find_sub_instance () in
  let dp = r.Flow.datapath in
  let rtl = mutate_swap_operands (full_rtl dp) in
  let diffs = structural_diffs "swap" (Equiv.verify ~rtl dp) in
  check Alcotest.bool "swap caught structurally" true (diffs <> [])

let mutation_dropped_wire () =
  let r = find_sub_instance () in
  let dp = r.Flow.datapath in
  let rtl = mutate_drop_wire (full_rtl dp) in
  let diffs = structural_diffs "drop" (Equiv.verify ~rtl dp) in
  check Alcotest.bool "dropped wire caught structurally" true (diffs <> [])

let mutation_widened_port () =
  let r = find_sub_instance () in
  let dp = r.Flow.datapath in
  let rtl = mutate_widen_port (full_rtl dp) in
  let diffs = structural_diffs "widen" (Equiv.verify ~rtl dp) in
  check Alcotest.bool "widened port caught structurally" true (diffs <> [])

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

let suite =
  [
    case "round-trip ex1" round_trip_ex1;
    case "round-trip all benchmarks" round_trip_all_benchmarks;
    case "round-trip data/*.dfg both flows" round_trip_data_dfgs;
    case "mutation: swapped operands caught" mutation_swapped_operands;
    case "mutation: dropped wire caught" mutation_dropped_wire;
    case "mutation: widened port caught" mutation_widened_port;
    case "unparsable RTL yields diagnostics" unparsable_is_diagnosed;
    case "sanitize is injective on punctuation" sanitize_is_injective_on_punctuation;
    case "fir8 netlist has no duplicate wires" fir8_has_no_duplicate_wires;
    case "digit-leading design name escaped" digit_leading_name_is_escaped;
    case "width-1 Less round-trips" width1_less_round_trips;
    case "binary: verify --rtl exit codes (0/2/4)" cli_verify_exit_codes;
    case "binary: golden lifecycle (update, churn, drift)" cli_golden_lifecycle;
  ]
