(* The gate-level results fixture: test/fixtures/gatelevel_trace.tsv
   pins, for every perfbench design in both flows, each unit's BIST
   session result (patterns, faults, detected, aliased, signature) at
   width 8 / 255 patterns and at width 4 / 100 patterns (a partial last
   64-pattern chunk); the PODEM classification of every unit at
   max_backtracks = 200 (counts plus an MD5 of the generated vectors);
   and the Pareto front of every design, plus the leaf-budget-truncated
   front of ewf. A change in fault grading or test generation shows up
   as a line diff. *)

module B = Bistpath_benchmarks.Benchmarks
module Massign = Bistpath_dfg.Massign
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Pareto = Bistpath_bist.Pareto
module Budget = Bistpath_resilience.Budget
module Library = Bistpath_gatelevel.Library
module Fault = Bistpath_gatelevel.Fault
module Podem = Bistpath_gatelevel.Podem
module Bist_sim = Bistpath_gatelevel.Bist_sim

let designs = Test_regalloc_trace.(tags @ data)

let flows =
  [ ("testable", Flow.Testable Testable_alloc.default_options);
    ("traditional", Flow.Traditional) ]

let row = Test_regalloc_trace.row

let flow_result ~width spec style =
  let inst = Test_regalloc_trace.load spec in
  Flow.run ~width ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy

let bist_rows spec =
  List.concat_map
    (fun (flow, style) ->
      List.concat_map
        (fun (width, pattern_count) ->
          let r = flow_result ~width spec style in
          let config = Printf.sprintf "w%d/p%d" width pattern_count in
          let rep = Bist_sim.run ~width ~pattern_count r.Flow.datapath r.Flow.bist in
          List.map
            (fun (u : Bist_sim.unit_report) ->
              row
                [ "bist"; spec; flow; config; u.mid; string_of_int u.patterns;
                  string_of_int u.faults_total; string_of_int u.faults_detected;
                  string_of_int u.aliased; Printf.sprintf "%X" u.signature;
                  string_of_int u.skipped ])
            rep.Bist_sim.units)
        [ (8, 255); (4, 100) ])
    flows

let podem_width = 4
let podem_backtracks = 200

(* Units of one kind set share a circuit, so classify each set once. *)
let classify =
  let memo = Hashtbl.create 16 in
  fun kinds ->
    match Hashtbl.find_opt memo kinds with
    | Some cls -> cls
    | None ->
      let circuit =
        match kinds with
        | [ k ] -> Library.of_kind k ~width:podem_width
        | kinds -> Library.alu kinds ~width:podem_width
      in
      let cls = Podem.classify_all ~max_backtracks:podem_backtracks circuit in
      Hashtbl.replace memo kinds cls;
      cls

let vectors_md5 (cls : Podem.classification) =
  cls.Podem.tested
  |> List.map (fun (f, v) ->
         Format.asprintf "%a:%s" Fault.pp f (String.concat "" (List.map string_of_int v)))
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let podem_rows spec =
  let inst = Test_regalloc_trace.load spec in
  List.map
    (fun (u : Massign.hw) ->
      let cls = classify u.Massign.kinds in
      row
        [ "podem"; spec; u.Massign.mid;
          Printf.sprintf "w%d/b%d" podem_width podem_backtracks;
          string_of_int (List.length cls.Podem.tested);
          string_of_int (List.length cls.Podem.untestable);
          string_of_int (List.length cls.Podem.aborted); vectors_md5 cls ])
    inst.B.massign.Massign.units

let front points =
  String.concat ","
    (List.map (fun p -> Printf.sprintf "%d/%d" p.Pareto.delta_gates p.Pareto.sessions) points)

let pareto_rows spec =
  List.map
    (fun (flow, style) ->
      let r = flow_result ~width:8 spec style in
      row [ "pareto"; spec; flow; front (Pareto.explore r.Flow.datapath) ])
    flows

let truncated_rows () =
  let r = flow_result ~width:8 "ewf" (List.assoc "testable" flows) in
  let budget = Budget.create ~leaf_budget:100 () in
  let points = Pareto.explore ~budget r.Flow.datapath in
  [ row
      [ "pareto-leaf100"; "ewf"; "testable";
        (if Budget.stop_reason budget = None then "complete" else "degraded");
        front points ] ]

let render () =
  String.concat ""
    ("# kind\tdesign\tfields (bist: flow width/patterns unit patterns faults detected \
      aliased signature skipped; podem: unit width/backtracks tested untestable aborted \
      vectors-md5; pareto: flow front)\n"
    :: List.concat_map bist_rows designs
    @ List.concat_map podem_rows designs
    @ List.concat_map pareto_rows designs
    @ truncated_rows ())

let fixture = Filename.concat "fixtures" "gatelevel_trace.tsv"

let reproduces_fixture () =
  let expected =
    In_channel.with_open_text fixture In_channel.input_all |> String.split_on_char '\n'
  in
  Test_regalloc_trace.first_diff 1 (expected, String.split_on_char '\n' (render ()))

let suite = [ Alcotest.test_case "fixture reproduces" `Quick reproduces_fixture ]
