(* The functional-simulation fixture: test/fixtures/functional_trace.tsv
   pins, for every perfbench design in both flows, the pout_* values the
   parsed-back RTL (plain and BIST registers) samples on 16 random
   vectors at seed 7, plus the same for two of Paulin's emitted-RTL
   mutants. The mutants matter: every mutant fails the cross-check on
   its first vector, so the verdict fixture cannot see a simulator that
   carries state from one vector into the next; these rows can. *)

module B = Bistpath_benchmarks.Benchmarks
module Dfg = Bistpath_dfg.Dfg
module Flow = Bistpath_core.Flow
module Verilog = Bistpath_rtl.Verilog
module Equiv = Bistpath_rtl.Equiv
module Prng = Bistpath_util.Prng

let width = 8
let vectors = 16
let seed = 7

let flows = [ ("testable", Test_equiv.testable); ("traditional", Flow.Traditional) ]

(* the cross-check's vectors: one generator per run, every DFG input *)
let random_vectors (dfg : Dfg.t) =
  let rng = Prng.create seed in
  List.init vectors (fun _ ->
      List.map (fun v -> (v, Prng.int rng (1 lsl width))) dfg.Dfg.inputs)

let pairs l = String.concat "," (List.map (fun (n, x) -> Printf.sprintf "%s=%d" n x) l)

let rows design flow variant rtl (r : Flow.result) =
  let dp = r.Flow.datapath in
  let e =
    match Equiv.parse_back rtl with
    | Ok e -> e
    | Error _ -> Alcotest.failf "%s/%s/%s: unparsable" design flow variant
  in
  let vs = random_vectors dp.Bistpath_datapath.Datapath.dfg in
  List.mapi
    (fun i (inputs, outputs) ->
      Test_regalloc_trace.row
        [ design; flow; variant; string_of_int i; pairs inputs; pairs outputs ])
    (List.combine vs (Equiv.simulate_vectors e dp ~width vs))

let design_rows spec =
  let inst = Test_regalloc_trace.load spec in
  List.concat_map
    (fun (flow, style) ->
      let r = Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy in
      let dp = r.Flow.datapath in
      rows spec flow "plain" (Verilog.source ~width dp) r
      @ rows spec flow "bist" (Verilog.source ~width ~bist:r.Flow.bist dp) r)
    flows

let mutant_rows name =
  let tag, mutate =
    match List.find_opt (fun (n, _, _, _) -> n = name) Test_equiv.mutants with
    | Some (_, tag, `Plain, mutate) -> (tag, mutate)
    | Some _ | None -> Alcotest.failf "no plain mutant %S" name
  in
  let r = Test_equiv.run_flow Test_equiv.testable (Option.get (B.by_tag tag)) in
  rows tag "testable" ("mutant: " ^ name) (mutate (Verilog.source ~width r.Flow.datapath)) r

let render () =
  String.concat ""
    ("# design\tflow\tvariant\tvector\tinputs\tsampled outputs\n"
    :: List.concat_map design_rows (Test_regalloc_trace.tags @ Test_regalloc_trace.data)
    @ List.concat_map mutant_rows [ "two-wire combinational loop"; "off-by-one step compare" ])

let fixture = Filename.concat "fixtures" "functional_trace.tsv"

let reproduces_fixture () =
  let expected =
    In_channel.with_open_text fixture In_channel.input_all |> String.split_on_char '\n'
  in
  Test_regalloc_trace.first_diff 1 (expected, render () |> String.split_on_char '\n')

let suite = [ Alcotest.test_case "fixture reproduces" `Quick reproduces_fixture ]
