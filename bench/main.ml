(* Benchmark harness: regenerates every table and figure of the paper
   (Tables I-III, Figs. 1-6), runs the extension experiments (ablation,
   gate-level BIST coverage), then writes four records:
   BENCH_telemetry.json (the library's spans per design),
   BENCH_service.json, BENCH_cache.json (all three gated by
   bench/compare.exe) and BENCH_absint.json. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Report = Bistpath_report.Report
module Bist_sim = Bistpath_gatelevel.Bist_sim
module Telemetry = Bistpath_telemetry.Telemetry
module Absint = Bistpath_absint.Absint
module Control = Bistpath_datapath.Control
module Runner = Bistpath_service.Runner
module Equiv = Bistpath_rtl.Equiv
module Verilog = Bistpath_rtl.Verilog

let section title body =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n\n";
  print_endline body

let coverage_section () =
  List.map
    (fun tag ->
      match B.by_tag tag with
      | None -> ""
      | Some inst ->
        let r =
          Flow.run ~style:(Flow.Testable Testable_alloc.default_options) inst.B.dfg
            inst.B.massign ~policy:inst.B.policy
        in
        let rep =
          Bist_sim.run ~width:8 ~pattern_count:255 r.Flow.datapath r.Flow.bist
        in
        Format.asprintf "%s:@.%a@.@." tag Bist_sim.pp rep)
    [ "ex1"; "Paulin" ]
  |> String.concat ""

let run_reports () =
  let sections =
    [
      ( "Table I (paper: 30-46% BIST-area reduction, same register counts)",
        fun () -> Report.table1 () );
      ("Table II (paper: testable flow needs fewer CBILBOs)", fun () -> Report.table2 ());
      ( "Table III (paper: ours beats RALLOC and SYNTEST on Paulin)",
        fun () -> Report.table3 () );
      ("Fig. 2 (ex1 scheduled DFG)", fun () -> Report.fig2 ());
      ("Fig. 4 (conflict graph, SD/MCS, walkthrough)", fun () -> Report.fig4 ());
      ("Fig. 5 (ex1 data paths, testable vs traditional)", fun () -> Report.fig5 ());
      ("Fig. 1/3 (simple I-paths)", fun () -> Report.fig1_3 ());
      ("Fig. 6 (register merge cases)", fun () -> Report.fig6 ());
      ("Ablation (ours)", fun () -> Report.ablation ());
      ("Transparent I-paths (ours)", fun () -> Report.transparency ());
      ("Area vs test time Pareto (ours)", fun () -> Report.pareto ());
      ("Partial scan vs BIST (ours)", fun () -> Report.scan_vs_bist ());
      ("I/O conversion-cost sensitivity (ours)", fun () -> Report.io_sensitivity ());
      ("Width sweep (ours)", fun () -> Report.width_sweep ());
      ( "Module-library testability: SCOAP + PODEM (ours)",
        fun () -> Report.testability () );
      ( "Gate-level BIST coverage (ours; paper asserts high coverage)",
        fun () -> coverage_section () );
    ]
  in
  List.iter (fun (title, body) -> section title (body ())) sections

(* --- per-stage telemetry ------------------------------------------ *)

(* One recorded flow per benchmark: print the span tree and dump every
   span as one JSON record so the repo's perf trajectory has
   machine-readable data points. The DFG files are the slowest designs
   to synthesize; they load through the CLI's loader inside the
   recording, so their module assignment ([massign]) is measured too.
   fir8's testable flow is the BIST search's worst case. *)
let telemetry_tags = [ "ex1"; "ex2"; "Tseng1"; "Paulin"; "ewf"; "fir8" ]

let telemetry_files = [ "data/ewf.dfg"; "data/fir32.dfg" ]

(* The slowest analysis ops, each recorded as its one root span over an
   unrecorded flow: Tseng2's gate-level coverage, fir8's Pareto sweep
   (every leaf within the slack bound), dct4's (about half of them),
   the structural match of data/fir32.dfg's BIST + sessions RTL
   (RTL005 of [check]) and 8 parse-backs of that RTL. Each op prepares
   outside the recording (the RTL is emitted and parsed back there) and
   returns what is recorded. *)
let telemetry_ops =
  [
    ( "Tseng2",
      "gatelevel.coverage",
      fun (r : Flow.result) () ->
        ignore (Bist_sim.run ~width:8 ~pattern_count:255 r.Flow.datapath r.Flow.bist) );
    ( "fir8",
      "pareto",
      fun r () ->
        ignore (Bistpath_bist.Pareto.explore ~minimum:r.Flow.bist r.Flow.datapath) );
    ( "dct4",
      "pareto",
      fun r () ->
        ignore (Bistpath_bist.Pareto.explore ~minimum:r.Flow.bist r.Flow.datapath) );
    ( "data/fir32.dfg",
      "rtl.structural",
      fun r ->
        let bist = r.Flow.bist and sessions = r.Flow.sessions and dp = r.Flow.datapath in
        match Equiv.parse_back (Verilog.source ~width:8 ~bist ~sessions dp) with
        | Ok e -> fun () -> ignore (Equiv.structural ~bist ~sessions e dp)
        | Error _ -> failwith "data/fir32.dfg: emitted RTL is unparsable" );
    (* the parse-back as [rtl --verify] runs it, primitives included:
       8 parses back to back in one rtl.parse span, long enough for the
       bench gate's 1 ms floor *)
    ( "data/fir32.dfg",
      "rtl.parse",
      fun r ->
        let rtl =
          Verilog.source ~width:8 ~bist:r.Flow.bist ~sessions:r.Flow.sessions r.Flow.datapath
        in
        fun () ->
          Telemetry.with_span "rtl.parse" (fun () ->
              for _ = 1 to 8 do
                ignore (Equiv.parse_back rtl)
              done) );
  ]

let telemetry_section () =
  Printf.printf "\n================================================================\n";
  Printf.printf "Per-stage telemetry (spans, counters; one flow per benchmark)\n";
  Printf.printf "================================================================\n\n";
  let records = Buffer.create 1024 in
  let record bench (s : Telemetry.span) =
    if Buffer.length records > 0 then Buffer.add_string records ",\n";
    Buffer.add_string records
      (Printf.sprintf "{\"bench\":\"%s\",\"stage\":\"%s\",\"ns\":%Ld,\"counters\":{%s}}"
         (Bistpath_util.Json.escape bench)
         (Bistpath_util.Json.escape s.Telemetry.name)
         s.Telemetry.dur_ns
         (String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "\"%s\":%d" (Bistpath_util.Json.escape k) v)
               s.Telemetry.counters)))
  in
  List.iter
    (fun tag ->
      let loaded, r =
        Telemetry.collect (fun () ->
            Result.map
              (fun inst ->
                Flow.run ~style:(Flow.Testable Testable_alloc.default_options)
                  inst.B.dfg inst.B.massign ~policy:inst.B.policy)
              (Runner.load_instance tag))
      in
      match loaded with
      | Error _ -> ()
      | Ok _ ->
        Printf.printf "%s:\n%s\n" tag (Telemetry.summary_table r);
        List.iter (record tag) (Telemetry.spans r))
    (telemetry_tags @ telemetry_files);
  List.iter
    (fun (tag, span, op) ->
      let inst =
        match Runner.load_instance tag with
        | Ok inst -> inst
        | Error _ -> failwith (tag ^ ": cannot load")
      in
      let flow =
        Flow.run ~style:(Flow.Testable Testable_alloc.default_options) inst.B.dfg
          inst.B.massign ~policy:inst.B.policy
      in
      let (), r = Telemetry.collect (op flow) in
      Printf.printf "%s %s:\n%s\n" tag span (Telemetry.summary_table r);
      List.iter
        (fun (s : Telemetry.span) ->
          if s.Telemetry.name = span && s.Telemetry.depth = 0 then record tag s)
        (Telemetry.spans r))
    telemetry_ops;
  Bistpath_resilience.Inject.fire_sys_error "telemetry.write";
  Telemetry.write_file "BENCH_telemetry.json"
    ("[\n" ^ Buffer.contents records ^ "\n]\n");
  print_endline "(wrote BENCH_telemetry.json)"

(* --- service mode: supervised batch throughput -------------------- *)

module Service = Bistpath_service.Service
module Inject = Bistpath_resilience.Inject

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Fleet throughput: the same job stream through the forked worker
   fleet at widths 1/4/16, driving the real synth binary as a
   [synth serve --workers N] subprocess, so the wall time is what such
   a caller waits for, process start included. Records land in
   BENCH_service.json under scenario "fleet-wN" so the compare gate
   tracks fleet wall time alongside the in-process service. *)
let fleet_widths = [ 1; 4; 16 ]

let fleet_records () =
  let synth =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "..")
      (Filename.concat "bin" "synth.exe")
  in
  if not (Sys.file_exists synth) then begin
    Printf.printf "\n  (fleet throughput skipped: %s not built)\n" synth;
    []
  end
  else begin
    let jobs =
      List.concat
        (List.init 6 (fun batch ->
             List.concat_map
               (fun tag ->
                 [
                   Printf.sprintf {|{"id":"%s-run-%d","spec":"%s","pipeline":"run"}|}
                     tag batch tag;
                   Printf.sprintf {|{"id":"%s-rtl-%d","spec":"%s","pipeline":"rtl"}|}
                     tag batch tag;
                 ])
               [ "ex1"; "ex2"; "Tseng1"; "Paulin" ]))
    in
    let mem_int name json =
      Option.bind (Bistpath_util.Json.member name json) Bistpath_util.Json.to_int
    in
    List.filter_map
      (fun workers ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "bistpath-bench-fleet-%d-w%d" (Unix.getpid ()) workers)
        in
        rm_rf dir;
        Unix.mkdir dir 0o755;
        Out_channel.with_open_text (Filename.concat dir "jobs.ndjson") (fun oc ->
            List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) jobs);
        let stats_file = Filename.concat dir "stats.json" in
        let out =
          Unix.openfile stats_file [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
        in
        let pid =
          Unix.create_process synth
            [| synth; "serve"; dir; "--quiet"; "--workers";
               string_of_int workers |]
            Unix.stdin out Unix.stderr
        in
        Unix.close out;
        let t0 = Monotonic_clock.now () in
        let code =
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED c -> c
          | Unix.WSIGNALED s -> 128 + s
          | Unix.WSTOPPED _ -> -1
        in
        let wall_ns = Int64.sub (Monotonic_clock.now ()) t0 in
        let stats =
          match
            Bistpath_util.Json.parse
              (In_channel.with_open_bin stats_file In_channel.input_all)
          with
          | Ok j -> Some j
          | Error _ -> None
        in
        rm_rf dir;
        match stats with
        | Some j when code = 0 ->
          let field name = Option.value ~default:0 (mem_int name j) in
          Printf.printf
            "  fleet-w%-2d %d jobs in %10Ld ns   ok %d  degraded %d  failed \
             %d  retries %d\n"
            workers (field "accepted") wall_ns (field "completed")
            (field "degraded") (field "failed") (field "retries");
          Some
            (Printf.sprintf
               "{\"scenario\":\"fleet-w%d\",\"jobs\":%d,\"wall_ns\":%Ld,\
                \"completed\":%d,\"degraded\":%d,\"failed\":%d,\"retries\":%d,\
                \"breaker_trips\":0,\"journal_errors\":%d}"
               workers (field "accepted") wall_ns (field "completed")
               (field "degraded") (field "failed") (field "retries")
               (field "journal_errors"))
        | _ ->
          Printf.printf "  fleet-w%-2d FAILED (exit %d), record dropped\n"
            workers code;
          None)
      fleet_widths
  end

(* One spool of real jobs through [Service.run], clean and under
   injected faults: the records capture batch wall time plus how much
   work the retry/breaker machinery did, so the perf trajectory shows
   what supervision costs. *)
let service_section () =
  Printf.printf "\n================================================================\n";
  Printf.printf "Service mode: supervised batch, clean vs injected faults\n";
  Printf.printf "================================================================\n\n";
  let jobs =
    List.concat_map
      (fun tag ->
        [
          Printf.sprintf {|{"id":"%s-run","spec":"%s","pipeline":"run"}|} tag tag;
          Printf.sprintf {|{"id":"%s-rtl","spec":"%s","pipeline":"rtl"}|} tag tag;
        ])
      [ "ex1"; "ex2"; "Tseng1"; "Paulin" ]
  in
  let scenarios =
    [
      ("clean", []);
      ( "injected",
        [ ("service.worker", 0.3); ("service.result_io", 0.2);
          ("service.journal", 0.2) ] );
    ]
  in
  let records =
    List.map
      (fun (scenario, faults) ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "bistpath-bench-serve-%d-%s" (Unix.getpid ()) scenario)
        in
        rm_rf dir;
        Unix.mkdir dir 0o755;
        Out_channel.with_open_text (Filename.concat dir "jobs.ndjson") (fun oc ->
            List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) jobs);
        Inject.configure faults;
        let cfg =
          { (Service.default_config (Service.Spool_dir dir)) with
            Service.retry_base_ms = 1.0;
            verbose = false }
        in
        let t0 = Monotonic_clock.now () in
        let stats = Service.run cfg in
        let wall_ns = Int64.sub (Monotonic_clock.now ()) t0 in
        Inject.configure [];
        rm_rf dir;
        Printf.printf
          "  %-9s %d jobs in %10Ld ns   ok %d  degraded %d  failed %d  retries \
           %d  breaker trips %d  journal errors %d\n"
          scenario stats.Service.accepted wall_ns stats.Service.completed
          stats.Service.degraded stats.Service.failed stats.Service.retries
          stats.Service.breaker_trips stats.Service.journal_errors;
        Printf.sprintf
          "{\"scenario\":\"%s\",\"jobs\":%d,\"wall_ns\":%Ld,\"completed\":%d,\
           \"degraded\":%d,\"failed\":%d,\"retries\":%d,\"breaker_trips\":%d,\
           \"journal_errors\":%d}"
          scenario stats.Service.accepted wall_ns stats.Service.completed
          stats.Service.degraded stats.Service.failed stats.Service.retries
          stats.Service.breaker_trips stats.Service.journal_errors)
      scenarios
  in
  let records = records @ fleet_records () in
  Inject.fire_sys_error "telemetry.write";
  Telemetry.write_file "BENCH_service.json"
    ("[\n" ^ String.concat ",\n" records ^ "\n]\n");
  print_endline "\n(wrote BENCH_service.json)"

(* --- result cache: cold vs warm run job ---------------------------- *)

(* One cold then one warm [run] job per benchmark through a fresh
   content-addressed store, timed around [Runner.execute] as a caller
   waits for it: cold loads the design, runs the flow, renders and
   stores the artifact; warm loads the design and serves the stored
   bytes. The hit/miss counters prove the warm job was a terminal
   hit. *)
let cache_section () =
  Printf.printf "\n================================================================\n";
  Printf.printf "Result cache: cold vs warm run job wall time per benchmark\n";
  Printf.printf "================================================================\n\n";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bistpath-bench-cache-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let store = Bistpath_cache.Store.open_ ~dir () in
  let job_ns tag =
    let job =
      match
        Bistpath_service.Job.parse_line ~default_id:tag
          (Printf.sprintf {|{"spec":"%s","pipeline":"run"}|} tag)
      with
      | Ok job -> job
      | Error e -> failwith e
    in
    let t0 = Telemetry.now () in
    let result, r =
      Telemetry.collect (fun () ->
          Runner.execute ~cache:store ~budget:Bistpath_resilience.Budget.unlimited job)
    in
    let ns = Int64.sub (Telemetry.now ()) t0 in
    (match result with
    | Ok _ -> ()
    | Error _ -> failwith ("cache bench: run job failed on " ^ tag));
    (ns, r)
  in
  let records =
    List.map
      (fun tag ->
        let cold_ns, _ = job_ns tag in
        let warm_ns, warm = job_ns tag in
        let hits = Telemetry.counter warm "cache.hit" in
        let misses = Telemetry.counter warm "cache.miss" in
        let speedup =
          Int64.to_float cold_ns /. Int64.to_float (Int64.max 1L warm_ns)
        in
        Printf.printf
          "  %-8s cold %10Ld ns   warm %10Ld ns   speedup %6.1fx   warm \
           hits/misses %d/%d\n"
          tag cold_ns warm_ns speedup hits misses;
        Printf.sprintf
          "{\"bench\":\"%s\",\"cold_ns\":%Ld,\"warm_ns\":%Ld,\
           \"speedup\":%.3f,\"warm_hits\":%d,\"warm_misses\":%d}"
          tag cold_ns warm_ns speedup hits misses)
      telemetry_tags
  in
  rm_rf dir;
  Inject.fire_sys_error "telemetry.write";
  Telemetry.write_file "BENCH_cache.json"
    ("[\n" ^ String.concat ",\n" records ^ "\n]\n");
  print_endline "\n(wrote BENCH_cache.json)"

(* Abstract interpretation: fixpoint cost and proven width savings per
   benchmark. Records land in BENCH_absint.json for trend inspection;
   the compare.exe regression gate does not read this file (solver
   iteration counts are structural, not timing, and the savings are
   deterministic). *)
let absint_section () =
  Printf.printf "\n================================================================\n";
  Printf.printf "Abstract interpretation: fixpoint cost and narrowing savings\n";
  Printf.printf "================================================================\n\n";
  let records =
    List.filter_map
      (fun tag ->
        match B.by_tag tag with
        | None -> None
        | Some inst ->
          let r =
            Flow.run
              ~style:(Flow.Testable Testable_alloc.default_options)
              inst.B.dfg inst.B.massign ~policy:inst.B.policy
          in
          let t0 = Telemetry.now () in
          let (res, plan), tr =
            Telemetry.collect (fun () ->
                let res =
                  Absint.solve_dfg ~width:8 ~policy:inst.B.policy inst.B.dfg
                in
                let control = Control.build r.Flow.datapath in
                let plan = Absint.narrow_plan ~width:8 r.Flow.datapath control in
                (res, plan))
          in
          let ns = Int64.sub (Telemetry.now ()) t0 in
          let iterations = Telemetry.counter tr "absint.iterations" in
          let widenings = Telemetry.counter tr "absint.widenings" in
          let pct = Absint.saved_percent plan in
          Printf.printf
            "  %-8s %10Ld ns   %3d iteration(s)   %2d widening(s)   saved \
             %3d/%3d bit(s) (%4.1f%%)\n"
            tag ns iterations widenings plan.Absint.saved_bits
            plan.Absint.total_bits pct;
          Some
            (Printf.sprintf
               "{\"bench\":\"%s\",\"solve_ns\":%Ld,\"iterations\":%d,\
                \"widenings\":%d,\"dfg_widened\":%b,\"saved_bits\":%d,\
                \"total_bits\":%d,\"saved_percent\":%.1f}"
               tag ns iterations widenings res.Absint.widened
               plan.Absint.saved_bits plan.Absint.total_bits pct))
      telemetry_tags
  in
  Telemetry.write_file "BENCH_absint.json"
    ("[\n" ^ String.concat ",\n" records ^ "\n]\n");
  print_endline "\n(wrote BENCH_absint.json)"

let () =
  run_reports ();
  telemetry_section ();
  service_section ();
  cache_section ();
  absint_section ()
