(* Tests for the test-mode simulation of the parsed-back RTL netlist (the
   BIST golden signatures) and the golden-baked self-test wrapper. *)

module Op = Bistpath_dfg.Op
module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Verilog = Bistpath_rtl.Verilog
module Bist_wrapper = Bistpath_rtl.Bist_wrapper

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let run_flow tag =
  let inst = Option.get (B.by_tag tag) in
  Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
    inst.B.dfg inst.B.massign ~policy:inst.B.policy

let seeds_distinct_and_nonzero () =
  let names = [ "R1"; "R2"; "R3"; "IN_x"; "IN_dx" ] in
  let seeds = List.map (Verilog.test_seed ~width:8) names in
  List.iter (fun s -> check Alcotest.bool "non-zero" true (s <> 0 && s < 256)) seeds;
  check Alcotest.bool "not all equal" true
    (List.length (List.sort_uniq compare seeds) > 1)

let goldens_deterministic () =
  let r = run_flow "ex1" in
  let g1 = Bist_wrapper.golden_signatures r.Flow.datapath r.Flow.bist r.Flow.sessions in
  let g2 = Bist_wrapper.golden_signatures r.Flow.datapath r.Flow.bist r.Flow.sessions in
  check Alcotest.bool "stable" true (g1 = g2);
  check Alcotest.bool "one golden per session (shared SA)" true (List.length g1 >= 2);
  (* healthy signatures: none of them zero (an all-zero signature would
     indicate the degenerate x-x=0 pattern correlation this layer is
     designed to avoid) *)
  List.iter
    (fun (g : Bist_wrapper.golden) ->
      check Alcotest.bool "non-zero signature" true (g.Bist_wrapper.signature <> 0))
    g1

let goldens_differ_across_sessions () =
  let r = run_flow "ex1" in
  let gs = Bist_wrapper.golden_signatures r.Flow.datapath r.Flow.bist r.Flow.sessions in
  let values = List.map (fun (g : Bist_wrapper.golden) -> g.Bist_wrapper.signature) gs in
  check Alcotest.bool "sessions produce different signatures" true
    (List.length (List.sort_uniq compare values) > 1)

(* Do the golden signatures differ when [mid] computes [fault] instead
   of its real function? *)
let detects_fault ?(width = 8) ?patterns dp sol sessions ~mid ~fault =
  let clean = Bist_wrapper.golden_signatures ~width ?patterns dp sol sessions in
  clean
  <> Bist_wrapper.golden_signatures ~width ?patterns ~faulty_unit:(mid, fault) dp sol sessions

let wrong_function_detected () =
  List.iter
    (fun (tag, mid) ->
      let r = run_flow tag in
      check Alcotest.bool (tag ^ " wrong op caught") true
        (detects_fault r.Flow.datapath r.Flow.bist r.Flow.sessions ~mid
           ~fault:(fun ~width x y -> Op.eval Op.Sub ~width x y)))
    [ ("ex1", "M1"); ("Paulin", "ADD"); ("Paulin", "MUL1") ]

let stuck_output_bit_detected () =
  let r = run_flow "ex1" in
  check Alcotest.bool "stuck bit caught" true
    (detects_fault r.Flow.datapath r.Flow.bist r.Flow.sessions ~mid:"M1"
       ~fault:(fun ~width x y -> Op.eval Op.Add ~width x y land 0xFE))

let full_period_constant_aliasing () =
  (* Theorem made test: XORing a constant error into a MISR for exactly
     one full period of the (invertible) state map telescopes to zero —
     the fault aliases at 255 patterns and is caught at 254. *)
  let r = run_flow "ex1" in
  let fault ~width x y = Op.eval Op.Add ~width x y lxor 1 in
  check Alcotest.bool "caught one cycle short of the period" true
    (detects_fault ~patterns:254 r.Flow.datapath r.Flow.bist r.Flow.sessions
       ~mid:"M1" ~fault);
  check Alcotest.bool "aliases at exactly the full period" false
    (detects_fault ~patterns:255 r.Flow.datapath r.Flow.bist r.Flow.sessions
       ~mid:"M1" ~fault)

let wrapper_bakes_goldens () =
  let r = run_flow "ex1" in
  let golden = Bist_wrapper.golden_signatures r.Flow.datapath r.Flow.bist r.Flow.sessions in
  let w = Bist_wrapper.emit ~golden r.Flow.datapath r.Flow.bist r.Flow.sessions in
  List.iter
    (fun (g : Bist_wrapper.golden) ->
      check Alcotest.bool "baked value" true
        (contains w
           (Printf.sprintf "GOLDEN_S%d_%s = 8'd%d" g.Bist_wrapper.session g.Bist_wrapper.rid
              g.Bist_wrapper.signature)))
    golden;
  check Alcotest.bool "provenance note" true (contains w "parsed-back datapath netlist");
  check Alcotest.bool "drives session port" true (contains w ".test_session(session)")

let datapath_emits_session_overrides () =
  let r = run_flow "ex1" in
  let v = Verilog.emit ~bist:r.Flow.bist ~sessions:r.Flow.sessions r.Flow.datapath in
  check Alcotest.bool "session port" true (contains v "input  wire [1:0] test_session");
  check Alcotest.bool "test override in selects" true
    (contains v "(test_mode && test_session ==");
  (* without sessions there is no session port *)
  let plain = Verilog.emit ~bist:r.Flow.bist r.Flow.datapath in
  check Alcotest.bool "no session port without sessions" false
    (contains plain "test_session")

let transparent_embeddings_rejected () =
  let inst = Option.get (B.by_tag "Paulin") in
  let r =
    Flow.run ~transparency:true
      ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options) inst.B.dfg
      inst.B.massign ~policy:inst.B.policy
  in
  let uses_via =
    List.exists
      (fun (e : Bistpath_ipath.Ipath.embedding) ->
        e.Bistpath_ipath.Ipath.l_via <> None || e.Bistpath_ipath.Ipath.r_via <> None)
      r.Flow.bist.Bistpath_bist.Allocator.embeddings
  in
  if uses_via then
    match Bist_wrapper.golden_signatures r.Flow.datapath r.Flow.bist r.Flow.sessions with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "via embedding accepted"

let goldens_across_widths () =
  let r = run_flow "Paulin" in
  List.iter
    (fun width ->
      let gs =
        Bist_wrapper.golden_signatures ~width r.Flow.datapath r.Flow.bist r.Flow.sessions
      in
      check Alcotest.bool (Printf.sprintf "width %d goldens" width) true
        (gs <> []
        && List.for_all
             (fun (g : Bist_wrapper.golden) ->
               g.Bist_wrapper.signature >= 0 && g.Bist_wrapper.signature < 1 lsl width)
             gs))
    [ 4; 8; 16 ]

(* Every signature of test/fixtures/golden_signatures.tsv (all benchmark
   tags, testable flow, widths 4, 8 and 16) reproduced by simulating the
   parsed-back netlist. *)
let goldens_match_fixture () =
  let rows =
    In_channel.with_open_text (Filename.concat "fixtures" "golden_signatures.tsv")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (String.split_on_char '\t')
  in
  let flows = Hashtbl.create 16 in
  let simulated tag width =
    let r =
      match Hashtbl.find_opt flows tag with
      | Some r -> r
      | None ->
        let r = run_flow tag in
        Hashtbl.replace flows tag r;
        r
    in
    List.map
      (fun (g : Bist_wrapper.golden) ->
        String.concat "\t"
          [ tag; string_of_int width; string_of_int g.Bist_wrapper.session;
            g.Bist_wrapper.rid; string_of_int g.Bist_wrapper.signature ])
      (Bist_wrapper.golden_signatures ~width r.Flow.datapath r.Flow.bist r.Flow.sessions)
  in
  let keys =
    List.fold_left
      (fun acc row ->
        match row with
        | tag :: width :: _ ->
          let key = (tag, int_of_string width) in
          if List.mem key acc then acc else acc @ [ key ]
        | _ -> Alcotest.fail "malformed fixture row")
      [] rows
  in
  check Alcotest.int "all tags at three widths" 30 (List.length keys);
  check
    Alcotest.(list string)
    "signatures" (List.map (String.concat "\t") rows)
    (List.concat_map (fun (tag, width) -> simulated tag width) keys)

let suite =
  [
    case "goldens match the committed fixture" goldens_match_fixture;
    case "goldens across widths" goldens_across_widths;
    case "seeds distinct and nonzero" seeds_distinct_and_nonzero;
    case "goldens deterministic and healthy" goldens_deterministic;
    case "goldens differ across sessions" goldens_differ_across_sessions;
    case "wrong function detected" wrong_function_detected;
    case "stuck output bit detected" stuck_output_bit_detected;
    case "full-period constant aliasing (theorem)" full_period_constant_aliasing;
    case "wrapper bakes goldens" wrapper_bakes_goldens;
    case "datapath session overrides" datapath_emits_session_overrides;
    case "transparent embeddings rejected" transparent_embeddings_rejected;
  ]
