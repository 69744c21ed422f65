(* Suite names stay within 12 characters: Alcotest sizes the name column
   by the longest one, so a longer name would truncate every test name. *)
let () =
  Alcotest.run "bistpath"
    [
      ("util", Test_util.suite);
      ("telemetry", Test_telemetry.suite);
      ("graphs", Test_graphs.suite);
      ("dfg", Test_dfg.suite);
      ("lifetime", Test_lifetime.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("frontend", Test_frontend.suite);
      ("sharing", Test_sharing.suite);
      ("cbilbo", Test_cbilbo.suite);
      ("alloc", Test_alloc.suite);
      ("datapath", Test_datapath.suite);
      ("interconnect", Test_interconnect.suite);
      ("bist", Test_bist.suite);
      ("gatelevel", Test_gatelevel.suite);
      ("rtl", Test_rtl.suite);
      ("flow", Test_flow.suite);
      ("interp", Test_interp.suite);
      ("transparency", Test_transparency.suite);
      ("pareto", Test_pareto.suite);
      ("injection", Test_injection.suite);
      ("resilience", Test_resilience.suite);
      ("timing-vcd", Test_timing_vcd.suite);
      ("partial-scan", Test_partial_scan.suite);
      ("rtl-sim", Test_rtl_sim.suite);
      ("atpg", Test_atpg.suite);
      ("report", Test_report.suite);
      ("service", Test_service.suite);
      ("fleet", Test_fleet.suite);
      ("cache", Test_cache.suite);
      ("compare", Test_compare.suite);
      ("check", Test_check.suite);
      ("equiv", Test_equiv.suite);
      ("absint", Test_absint.suite);
      ("regalloc", Test_regalloc_trace.suite);
      ("incremental", Test_incremental.suite);
      ("gate-trace", Test_gatelevel_trace.suite);
      ("bist-trace", Test_bist_trace.suite);
      ("func-trace", Test_functional_trace.suite);
      ("tables", Test_tables.suite);
    ]
