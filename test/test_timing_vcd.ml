(* Tests for the timing model and the VCD exporter. *)

module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Timing = Bistpath_datapath.Timing
module Interp = Bistpath_datapath.Interp
module Vcd = Bistpath_rtl.Vcd

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let run_flow tag =
  let inst = Option.get (B.by_tag tag) in
  ( inst,
    Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
      inst.B.dfg inst.B.massign ~policy:inst.B.policy )

(* --- timing -------------------------------------------------------- *)

let mux_levels_known () =
  check Alcotest.int "1 input" 0 (Timing.mux_levels ~inputs:1);
  check Alcotest.int "2 inputs" 1 (Timing.mux_levels ~inputs:2);
  check Alcotest.int "3 inputs" 2 (Timing.mux_levels ~inputs:3);
  check Alcotest.int "4 inputs" 2 (Timing.mux_levels ~inputs:4);
  check Alcotest.int "5 inputs" 3 (Timing.mux_levels ~inputs:5)

let unit_levels_ordering () =
  let u kinds = { Massign.mid = "u"; kinds } in
  let l k = Timing.unit_levels ~width:8 (u [ k ]) in
  check Alcotest.bool "logic < add < mul < div" true
    (l Op.And < l Op.Add && l Op.Add < l Op.Mul && l Op.Mul < l Op.Div);
  (* an ALU is slower than its slowest member *)
  check Alcotest.bool "alu overhead" true
    (Timing.unit_levels ~width:8 (u [ Op.Add; Op.Mul ]) > l Op.Mul);
  check Alcotest.int "empty unit" 0 (Timing.unit_levels ~width:8 (u []))

let clock_dominated_by_multiplier () =
  let _, r = run_flow "ex1" in
  let clock = Timing.clock_levels ~width:8 r.Flow.datapath in
  (* must cover at least the multiplier (32 levels at width 8) *)
  check Alcotest.bool "covers multiplier" true (clock >= 32);
  check Alcotest.bool "within mux budget" true (clock <= 32 + 10)

let execution_scales_with_latency () =
  let _, r = run_flow "ex1" in
  check Alcotest.int "latency = csteps + load"
    (Bistpath_dfg.Dfg.num_csteps r.Flow.datapath.Bistpath_datapath.Datapath.dfg + 1)
    (Timing.schedule_latency r.Flow.datapath)

let test_time_accounting () =
  let _, r = run_flow "ex1" in
  let tt = Timing.test_time ~width:8 r.Flow.datapath ~sessions:2 in
  check Alcotest.int "default patterns = LFSR period" 255 tt.Timing.patterns_per_session;
  check Alcotest.int "total" 510 tt.Timing.total_cycles;
  let tt2 = Timing.test_time ~patterns:100 ~width:8 r.Flow.datapath ~sessions:3 in
  check Alcotest.int "explicit patterns" 300 tt2.Timing.total_cycles

(* --- VCD ----------------------------------------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let vcd_structure () =
  let _, r = run_flow "ex1" in
  let vcd =
    Vcd.dump_run r.Flow.datapath ~width:8 ~inputs:[ ("a", 3); ("b", 5); ("e", 7); ("g", 11) ]
  in
  check Alcotest.bool "header" true (contains vcd "$enddefinitions $end");
  check Alcotest.bool "declares R1" true (contains vcd "$var wire 8 ! R1 $end");
  check Alcotest.bool "time zero" true (contains vcd "#0\n");
  (* d = a+b = 8 lands in some register after step 1 *)
  check Alcotest.bool "binary value of d" true (contains vcd "b00001000");
  (* only changed values are re-dumped: R3 loads e=7 once at step 2 and
     the value 7 appears exactly once *)
  let count =
    List.length
      (List.filter (fun l -> contains l "b00000111")
         (String.split_on_char '\n' vcd))
  in
  check Alcotest.int "change-only dumping" 1 count

let vcd_timesteps_match_trace () =
  let _, r = run_flow "Paulin" in
  let inputs = [ ("x", 2); ("y", 3); ("u", 50); ("dx", 4); ("a", 100); ("c3", 3) ] in
  let _, trace = Interp.run ~trace:true r.Flow.datapath ~width:8 ~inputs in
  let vcd = Vcd.dump_run r.Flow.datapath ~width:8 ~inputs in
  List.iter
    (fun (e : Interp.trace_entry) ->
      check Alcotest.bool
        (Printf.sprintf "timestep %d present" e.Interp.step)
        true
        (contains vcd (Printf.sprintf "#%d\n" (e.Interp.step * 10))))
    trace

let suite =
  [
    case "mux levels" mux_levels_known;
    case "unit level ordering" unit_levels_ordering;
    case "clock dominated by multiplier" clock_dominated_by_multiplier;
    case "execution scales with latency" execution_scales_with_latency;
    case "test time accounting" test_time_accounting;
    case "vcd structure" vcd_structure;
    case "vcd timesteps match trace" vcd_timesteps_match_trace;
  ]
