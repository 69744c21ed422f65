(* bistpath command-line driver: synthesize benchmark or user DFGs with
   the traditional and BIST-aware flows, reproduce the paper's tables and
   figures, emit RTL/DOT, and run gate-level self-test simulation. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Store = Bistpath_cache.Store
module Report = Bistpath_report.Report
module Verilog = Bistpath_rtl.Verilog
module Dot = Bistpath_rtl.Dot
module Podem = Bistpath_gatelevel.Podem
module Library = Bistpath_gatelevel.Library
module Massign = Bistpath_dfg.Massign
module Telemetry = Bistpath_telemetry.Telemetry
module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Diagnostic = Bistpath_resilience.Diagnostic
module Inject = Bistpath_resilience.Inject
module Service = Bistpath_service.Service
module Fleet = Bistpath_service.Fleet
module Runner = Bistpath_service.Runner
module Job = Bistpath_service.Job
module Check = Bistpath_check.Check
module Equiv = Bistpath_rtl.Equiv
module Absint = Bistpath_absint.Absint
module Interval = Bistpath_absint.Interval
module Control = Bistpath_datapath.Control
module Json = Bistpath_util.Json

open Cmdliner

(* Exit-code protocol: 0 success, 1 internal/CLI error, 2 static-check
   or parse-back findings (the verifier found error-severity
   violations, or `verify` found a structural/functional mismatch), 3
   degraded (a budget tripped and best-so-far results were printed), 4
   invalid input (the DFG/behavioural text failed validation, or
   `verify` was given unparsable RTL). *)
let exit_findings = 2
let exit_degraded = 3
let exit_invalid_input = 4

let instance_arg =
  let doc = "Benchmark tag (see $(b,synth list)) or path to a DFG file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DFG" ~doc)

let width_arg =
  let doc = "Datapath bit width for the area model and simulations." in
  Arg.(value & opt int 8 & info [ "width" ] ~docv:"BITS" ~doc)

let flow_arg =
  let doc = "Allocation flow: $(b,testable) (default) or $(b,traditional)." in
  Arg.(value & opt string "testable" & info [ "flow" ] ~docv:"FLOW" ~doc)

let transparency_arg =
  let doc = "Let pattern generators reach ports through transparent units." in
  Arg.(value & flag & info [ "transparency" ] ~doc)

let or_die = function
  | Ok x -> x
  | Error msg ->
    prerr_endline ("synth: " ^ msg);
    exit 1

(* Invalid *input* (as opposed to CLI misuse) exits 4 so scripts can
   tell "your DFG is broken" from "the tool broke". *)
let or_die_input = function
  | Ok x -> x
  | Error lines ->
    List.iter (fun l -> prerr_endline ("synth: " ^ l)) lines;
    exit exit_invalid_input

(* --- uniform numeric-flag validation ------------------------------- *)

(* Numeric resource flags share one parse path: a negative, zero or
   garbage value is invalid input — exit 4 with a diagnostic — rather
   than a silent clamp, a cmdliner usage error, or a degraded run. *)
let invalid_flag flag got want =
  prerr_endline
    ("synth: "
    ^ Diagnostic.to_string
        (Diagnostic.error (Printf.sprintf "%s: expected %s, got %S" flag want got)));
  exit exit_invalid_input

let pos_float_of ~flag = function
  | None -> None
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some v when v > 0.0 && Float.is_finite v -> Some v
    | _ -> invalid_flag flag s "a positive number")

let pos_int_of ~flag = function
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 1 -> Some v
    | _ -> invalid_flag flag s "a positive integer")

let nonneg_float_of ~flag ~default = function
  | None -> default
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some v when v >= 0.0 && Float.is_finite v -> v
    | _ -> invalid_flag flag s "a non-negative number")

let nonneg_int_of ~flag ~default = function
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 0 -> v
    | _ -> invalid_flag flag s "a non-negative integer")

(* --- telemetry and budget flags (every subcommand) ----------------- *)

let stats_arg =
  let doc =
    "Print a per-stage telemetry summary (spans, wall time, counters) to stderr."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file to $(docv) (load it in \
     chrome://tracing or https://ui.perfetto.dev for a flamegraph)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_dir_arg =
  let doc =
    "Write Chrome trace-event files into $(docv) (created if missing): \
     $(docv)/synth.trace.json for this run, plus — under $(b,serve) — \
     one <id>.trace.json per job. Traces include per-worker fleet lanes \
     and counter tracks (queue depth, busy workers) for Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let timeout_arg =
  let doc =
    "Wall-clock budget in seconds (anytime mode). When the deadline \
     hits, the search stops cooperatively, the best solution found so \
     far is printed, and synth exits 3."
  in
  Arg.(value & opt (some string) None & info [ "timeout" ] ~docv:"SEC" ~doc)

let leaf_budget_arg =
  let doc =
    "Stop after evaluating $(docv) enumeration leaves (anytime mode). \
     Like $(b,--timeout), a tripped budget prints best-so-far results \
     and exits 3; unlike it, the truncation point is deterministic."
  in
  Arg.(value & opt (some string) None & info [ "leaf-budget" ] ~docv:"N" ~doc)

let max_errors_arg =
  let doc =
    "Report at most $(docv) input diagnostics before truncating \
     (invalid input exits 4)."
  in
  Arg.(value & opt (some string) None & info [ "max-errors" ] ~docv:"N" ~doc)

type common = {
  stats : bool;
  trace : string option;
  trace_dir : string option;
  timeout : float option;
  leaf_budget : int option;
  max_errors : int option;
}

let common_term =
  Term.(
    const (fun stats trace trace_dir timeout leaf_budget max_errors ->
        {
          stats;
          trace;
          trace_dir;
          timeout = pos_float_of ~flag:"--timeout" timeout;
          leaf_budget = pos_int_of ~flag:"--leaf-budget" leaf_budget;
          max_errors = pos_int_of ~flag:"--max-errors" max_errors;
        })
    $ stats_arg $ trace_arg $ trace_dir_arg $ timeout_arg $ leaf_budget_arg
    $ max_errors_arg)

(* --- result cache flags (run/rtl/pareto/serve) --------------------- *)

let cache_flag_arg =
  let doc =
    "Enable the content-addressed result cache: stage results and \
     terminal artifacts are stored under the cache directory, and a \
     warm re-run serves byte-identical output from it, re-running only \
     the stages whose inputs changed."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let no_cache_arg =
  let doc = "Disable the result cache (overrides $(b,--cache) and $(b,--cache-dir))." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_dir_arg =
  let doc =
    "Result-cache directory (created if missing; implies $(b,--cache)). \
     Defaults to $(b,.bistpath-cache) — or $(b,SPOOL/cache) under \
     $(b,serve)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let cache_max_mb_arg =
  let doc =
    "On-disk cache size cap in megabytes; least-recently-used entries \
     are evicted past it."
  in
  Arg.(value & opt (some string) None & info [ "cache-max-mb" ] ~docv:"MB" ~doc)

type cache_opts = { cache_on : bool; cache_dir : string option; cache_max_mb : int option }

let cache_term =
  Term.(
    const (fun on off dir max_mb ->
        {
          cache_on = (on || dir <> None) && not off;
          cache_dir = dir;
          cache_max_mb = pos_int_of ~flag:"--cache-max-mb" max_mb;
        })
    $ cache_flag_arg $ no_cache_arg $ cache_dir_arg $ cache_max_mb_arg)

(* An unusable cache directory degrades to an uncached run with a
   warning, never a failure: the cache is an optimization, and the
   primary artifact must still be produced. *)
let open_cache ?(default_dir = ".bistpath-cache") co =
  if not co.cache_on then None
  else
    let dir = Option.value co.cache_dir ~default:default_dir in
    match Store.open_ ?max_mb:co.cache_max_mb ~dir () with
    | store -> Some store
    | exception Sys_error msg ->
      Printf.eprintf "synth: warning: result cache disabled: %s\n" msg;
      None

(* Telemetry goes to stderr or the named trace file, never stdout: for
   rtl/dot/vcd/tb/export the primary artifact is the stdout stream and
   must stay machine-parsable.

   [f] receives the budget built from --timeout/--leaf-budget
   (Budget.unlimited when neither is given, keeping unbudgeted runs on
   the exact historical code path). If the budget tripped, whatever
   output [f] printed stands as the best-so-far answer and we exit 3
   after the telemetry epilogue. *)
let with_common c f =
  let budget =
    match (c.timeout, c.leaf_budget) with
    | None, None -> Budget.unlimited
    | deadline_s, leaf_budget -> Budget.create ?deadline_s ?leaf_budget ()
  in
  let body () =
    let x = f budget in
    (match Budget.stop_reason budget with
    | Some _ -> Telemetry.set "resilience.degraded" 1
    | None -> ());
    x
  in
  let finish x =
    match Budget.stop_reason budget with
    | Some r ->
      Printf.eprintf "synth: degraded: %s (best-so-far results shown)\n"
        (Cancel.describe r);
      exit exit_degraded
    | None -> x
  in
  try
    if (not c.stats) && c.trace = None && c.trace_dir = None then finish (body ())
    else begin
      let r = Telemetry.create () in
      let flushed = ref false in
      (* bin links no unix; Sys.mkdir is enough for the shallow trees
         --trace-dir asks for *)
      let rec mkdir_p dir =
        if not (Sys.file_exists dir) then begin
          mkdir_p (Filename.dirname dir);
          try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
        end
      in
      let flush ~exit_on_error =
        if not !flushed then begin
          flushed := true;
          if c.stats then prerr_string (Telemetry.summary_table r);
          let write_trace file =
            try
              Inject.fire_sys_error "telemetry.write";
              Telemetry.write_file file (Telemetry.chrome_trace_json r)
            with Sys_error msg ->
              Printf.eprintf "synth: cannot write trace file: %s\n" msg;
              if exit_on_error then exit 1
          in
          Option.iter write_trace c.trace;
          Option.iter
            (fun dir ->
              (try mkdir_p dir
               with Sys_error msg ->
                 Printf.eprintf "synth: cannot create trace directory: %s\n" msg;
                 if exit_on_error then exit 1);
              write_trace (Filename.concat dir "synth.trace.json"))
            c.trace_dir
        end
      in
      (* Crash-safe sinks: flush from [at_exit] too, so a fatal error
         mid-pipeline (injected fault, allocator bug, [exit 1]) still
         lands the recorded prefix — open spans included — on disk and
         stderr instead of dropping the buffered tail. *)
      at_exit (fun () -> flush ~exit_on_error:false);
      Telemetry.install r;
      let x = body () in
      Telemetry.uninstall ();
      flush ~exit_on_error:true;
      finish x
    end
  with Inject.Injected site ->
    Printf.eprintf "synth: injected fault at site %s\n" site;
    exit 1

(* Opt-in static-verification gate for artifact-emitting commands: the
   artifact goes to stdout untouched, findings go to stderr, and
   error-severity findings exit 2. Off by default, so unchecked
   pipelines stay byte-identical. *)
let check_gate_arg =
  let doc =
    "After the flow completes, run the static verifier ($(b,synth check)) \
     over the synthesized artifacts: findings print to stderr and \
     error-severity findings exit 2. The stdout artifact is unaffected."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let check_gate ~budget inst job r =
  let rep = Runner.check_report ~budget inst job r in
  if rep.Check.findings <> [] || rep.Check.suppressed <> [] then
    prerr_string (Check.to_text rep);
  if Check.errors rep > 0 then exit exit_findings

(* --- the pipelines shared with serve (Runner) ------------------------ *)

(* The job a command line describes; it carries no budget, as
   [with_common] builds one from the flags. An unknown --flow exits 1,
   after the spec's own diagnostics (exit 4) if it fails to load too. *)
let cli_job c ?(width = 8) ?(flow = "testable") ?(transparency = false)
    ?(patterns = 255) pipeline spec =
  (match Flow.parse_style flow with
  | Ok _ -> ()
  | Error msg ->
    ignore (or_die_input (Runner.load_instance ?max_errors:c.max_errors spec));
    or_die (Error msg));
  { Job.id = "synth"; spec; pipeline; width; flow; transparency; patterns;
    timeout_s = None; leaf_budget = None }

(* One job per flow a [--flow both|testable|traditional] value names:
   [both] is traditional then testable. *)
let cli_jobs c ?width ?transparency pipeline spec flow =
  List.map
    (fun flow -> cli_job c ?width ~flow ?transparency pipeline spec)
    (if flow = "both" then [ "traditional"; "testable" ] else [ flow ])

(* --- the report commands' shared flags (check, analyze, verify) ------ *)

let flows_arg ~verb =
  let doc =
    Printf.sprintf
      "Which flow(s) to %s: $(b,both) (default), $(b,testable) or $(b,traditional)."
      verb
  in
  Arg.(value & opt string "both" & info [ "flow" ] ~docv:"FLOW" ~doc)

(* "a, b or c" *)
let one_of names =
  match List.rev names with
  | last :: (_ :: _ as rest) -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat "" names

(* The first format is the default. *)
let format_arg formats ~per =
  let name i f = Printf.sprintf "$(b,%s)%s" f (if i = 0 then " (default)" else "") in
  let doc =
    Printf.sprintf "Report format: %s (one %s)." (one_of (List.mapi name formats)) per
  in
  Arg.(value & opt string (List.hd formats) & info [ "format" ] ~docv:"FMT" ~doc)

(* An unknown --format exits 1. *)
let valid_format formats format =
  if not (List.mem format formats) then
    or_die (Error (Printf.sprintf "unknown format %S (use %s)" format (one_of formats)))

(* A negative --vectors is invalid input (exit 4), like every numeric flag. *)
let valid_vectors n =
  if n < 0 then invalid_flag "--vectors" (string_of_int n) "a non-negative integer"

let print_job c ?cache ~budget job =
  match Runner.execute ?max_errors:c.max_errors ?cache ~budget job with
  | Ok (artifact, _) -> print_string artifact
  | Error (Runner.Invalid_input lines) -> or_die_input (Error lines)
  | Error (Runner.Check_findings lines) ->
    List.iter (fun l -> prerr_endline ("synth: " ^ l)) lines;
    exit exit_findings

let run_term =
  let run c spec width flow transparency check cache_o =
    with_common c @@ fun budget ->
    let job = cli_job c ~width ~flow ~transparency Job.Run spec in
    let cache = open_cache cache_o in
    if not check then print_job c ?cache ~budget job
    else begin
      (* the gate needs the live flow result, so no terminal artifact *)
      let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
      let r = Runner.flow ?cache ~budget inst job in
      print_string (Runner.render_run inst r);
      check_gate ~budget inst job r
    end
  in
  Term.(
    const run $ common_term $ instance_arg $ width_arg $ flow_arg
    $ transparency_arg $ check_gate_arg $ cache_term)

let run_cmd =
  let doc = "Synthesize a data path and report its minimal-area BIST solution." in
  Cmd.v (Cmd.info "run" ~doc) run_term

let compare_cmd =
  let run c spec width =
    with_common c @@ fun _budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    let c = Report.compare_instance ~width inst in
    Format.printf "=== traditional ===@.%a@.@.=== testable ===@.%a@.@.reduction: %.2f%%@."
      Flow.pp_result c.Report.traditional Flow.pp_result c.Report.testable
      (Flow.reduction_percent ~traditional:c.Report.traditional
         ~testable:c.Report.testable)
  in
  let doc = "Run both flows on one DFG and show the BIST overhead reduction." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ common_term $ instance_arg $ width_arg)

let tables_cmd =
  let run c width =
    with_common c @@ fun _budget ->
    print_endline (Report.table1 ~width ());
    print_newline ();
    print_endline (Report.table2 ~width ());
    print_newline ();
    print_endline (Report.table3 ~width ())
  in
  let doc = "Reproduce the paper's Tables I, II and III." in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ common_term $ width_arg)

let figures_cmd =
  let run c width =
    with_common c @@ fun _budget ->
    List.iter
      (fun s ->
        print_endline s;
        print_newline ())
      [ Report.fig2 (); Report.fig4 (); Report.fig5 ~width (); Report.fig1_3 ~width (); Report.fig6 () ]
  in
  let doc = "Reproduce the paper's figures (2, 4, 5, 1/3, 6)." in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ common_term $ width_arg)

let ablation_cmd =
  let run c width =
    with_common c @@ fun _budget -> print_endline (Report.ablation ~width ())
  in
  let doc = "Ablate the testable allocator's ingredients across benchmarks." in
  Cmd.v (Cmd.info "ablation" ~doc) Term.(const run $ common_term $ width_arg)

let rtl_cmd =
  let bist_arg =
    let doc = "Instantiate BIST register variants per the minimal-area solution." in
    Arg.(value & flag & info [ "bist" ] ~doc)
  in
  let wrapper_arg =
    let doc = "Also emit the self-test wrapper (implies $(b,--bist))." in
    Arg.(value & flag & info [ "wrapper" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Parse the emitted RTL back and prove it structurally equivalent to \
       the data path before printing (exit 2 on mismatch, 4 if the emitted \
       text is unparsable)."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let narrow_arg =
    let doc =
      "Narrow each register and functional unit to the width the abstract \
       interpreter proves sufficient (the $(b,synth analyze) plan, never \
       assumption-based); ports keep the uniform width. Rejected with \
       $(b,--bist)/$(b,--wrapper) — test-register semantics are \
       width-dependent. Disables the artifact cache; combine with \
       $(b,--verify) to prove the narrowed netlist equivalent."
    in
    Arg.(value & flag & info [ "narrow" ] ~doc)
  in
  let run c spec width flow bist wrapper verify narrow check cache_o =
    with_common c @@ fun budget ->
    let job = cli_job c ~width ~flow Job.Rtl spec in
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    let bist = bist || wrapper in
    if narrow && bist then
      invalid_flag "--narrow"
        (if wrapper then "--wrapper" else "--bist")
        "a plain datapath (BIST register semantics are width-dependent)";
    let cache = open_cache cache_o in
    if not (check || verify || narrow) then
      print_string (fst (Runner.rtl ?cache ~budget ~bist ~wrapper inst job))
    else begin
      (* the gates and the narrowing plan need the live flow result, so
         no terminal artifact *)
      let r = Runner.flow ?cache ~budget inst job in
      let plan =
        if not narrow then None
        else
          match Control.build r.Flow.datapath with
          | control -> Some (Absint.narrow_plan ~width r.Flow.datapath control)
          | exception e ->
            or_die
              (Error
                 (Printf.sprintf "--narrow: cannot build the control table: %s"
                    (Printexc.to_string e)))
      in
      let regw = match plan with Some p -> p.Absint.regw | None -> [] in
      let unitw = match plan with Some p -> p.Absint.unitw | None -> [] in
      Option.iter
        (fun (p : Absint.plan) ->
          Printf.eprintf
            "synth: narrow: %d of %d component bit(s) removed (%.1f%%), %d \
             register(s) and %d unit(s) narrowed\n"
            p.Absint.saved_bits p.Absint.total_bits (Absint.saved_percent p)
            (List.length p.Absint.regw)
            (List.length p.Absint.unitw))
        plan;
      let payload = Runner.render_rtl ~width ~regw ~unitw ~bist ~wrapper r in
      print_string payload;
      if verify then begin
        (* parse the just-printed text back and prove it equivalent *)
        match
          Equiv.verify ~width
            ?bist:(if bist then Some r.Flow.bist else None)
            ?sessions:(if wrapper then Some r.Flow.sessions else None)
            ~regw ~rtl:payload r.Flow.datapath
        with
        | Error diags ->
          List.iter
            (fun d -> prerr_endline ("synth: " ^ Diagnostic.to_string d))
            diags;
          exit exit_invalid_input
        | Ok _ as result -> (
          match Equiv.verdict result with
          | [] -> ()
          | findings ->
            List.iter (fun f -> prerr_endline ("synth: verify: " ^ Equiv.line f)) findings;
            exit exit_findings)
      end;
      if check then check_gate ~budget inst job r
    end
  in
  let doc = "Emit structural Verilog for the synthesized data path." in
  Cmd.v (Cmd.info "rtl" ~doc)
    Term.(
      const run $ common_term $ instance_arg $ width_arg $ flow_arg $ bist_arg
      $ wrapper_arg $ verify_arg $ narrow_arg $ check_gate_arg $ cache_term)

let dot_cmd =
  let what_arg =
    let doc = "What to draw: $(b,datapath) (default) or $(b,dfg)." in
    Arg.(value & opt string "datapath" & info [ "what" ] ~docv:"KIND" ~doc)
  in
  let run c spec width flow what =
    with_common c @@ fun budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    match what with
    | "dfg" -> print_endline (Dot.of_dfg inst.B.dfg)
    | "datapath" ->
      let r = Runner.flow ~budget inst (cli_job c ~width ~flow Job.Run spec) in
      print_endline (Dot.of_datapath ~bist:r.Flow.bist r.Flow.datapath)
    | s -> or_die (Error (Printf.sprintf "unknown kind %S" s))
  in
  let doc = "Emit Graphviz DOT for a DFG or synthesized data path." in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(
      const run $ common_term $ instance_arg $ width_arg $ flow_arg $ what_arg)

let coverage_cmd =
  let patterns_arg =
    let doc = "Number of LFSR patterns per test session." in
    Arg.(value & opt int 255 & info [ "patterns" ] ~docv:"N" ~doc)
  in
  let run c spec width flow patterns =
    with_common c @@ fun budget ->
    print_job c ~budget (cli_job c ~width ~flow ~patterns Job.Coverage spec)
  in
  let doc = "Gate-level stuck-at coverage of the chosen BIST configuration." in
  Cmd.v
    (Cmd.info "coverage" ~doc)
    Term.(
      const run $ common_term $ instance_arg $ width_arg $ flow_arg
      $ patterns_arg)

let vcd_cmd =
  let inputs_arg =
    let doc = "Input values as name=value pairs (defaults to a seeded random vector)." in
    Arg.(value & opt_all string [] & info [ "set" ] ~docv:"VAR=VAL" ~doc)
  in
  let run c spec width flow sets =
    with_common c @@ fun budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    let r = Runner.flow ~budget inst (cli_job c ~width ~flow Job.Run spec) in
    let used = Bistpath_dfg.Dfg.used_inputs inst.B.dfg in
    let rng = Bistpath_util.Prng.create 1 in
    let defaults = List.map (fun v -> (v, Bistpath_util.Prng.int rng (1 lsl width))) used in
    let overrides =
      List.map
        (fun s ->
          match String.split_on_char '=' s with
          | [ k; v ] -> (
            match int_of_string_opt v with
            | Some x -> (k, x)
            | None ->
              or_die
                (Error
                   (Printf.sprintf "bad --set %S (%S is not an integer)" s v)))
          | _ -> or_die (Error (Printf.sprintf "bad --set %S (want VAR=VAL)" s)))
        sets
    in
    let inputs =
      List.map
        (fun (v, x) ->
          (v, match List.assoc_opt v overrides with Some o -> o | None -> x))
        defaults
    in
    print_endline (Bistpath_rtl.Vcd.dump_run r.Flow.datapath ~width ~inputs)
  in
  let doc = "Interpret the data path and dump a VCD waveform (view in GTKWave)." in
  Cmd.v (Cmd.info "vcd" ~doc)
    Term.(
      const run $ common_term $ instance_arg $ width_arg $ flow_arg
      $ inputs_arg)

let tb_cmd =
  let count_arg =
    let doc = "Number of random test vectors." in
    Arg.(value & opt int 5 & info [ "vectors" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the vectors." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run c spec width flow count seed =
    with_common c @@ fun budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    let r = Runner.flow ~budget inst (cli_job c ~width ~flow Job.Run spec) in
    let rng = Bistpath_util.Prng.create seed in
    let vectors =
      Bistpath_rtl.Testbench.random_vectors rng r.Flow.datapath ~width ~count
    in
    print_string (Verilog.source ~width r.Flow.datapath);
    print_endline (Bistpath_rtl.Testbench.generate ~width r.Flow.datapath ~vectors)
  in
  let doc =
    "Emit a complete compilation unit: primitives, datapath and a self-checking testbench."
  in
  Cmd.v (Cmd.info "tb" ~doc)
    Term.(
      const run $ common_term $ instance_arg $ width_arg $ flow_arg
      $ count_arg $ seed_arg)

let area_cmd =
  let run c spec width flow =
    with_common c @@ fun budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    let r = Runner.flow ~budget inst (cli_job c ~width ~flow Job.Run spec) in
    let m = Bistpath_datapath.Area.default in
    Format.printf "functional: %a@."
      Bistpath_datapath.Area.pp_breakdown
      (Bistpath_datapath.Area.breakdown m ~width r.Flow.datapath);
    Format.printf "BIST modifications: +%d gates (%.2f%%)@."
      r.Flow.bist.Bistpath_bist.Allocator.delta_gates r.Flow.overhead_percent;
    Format.printf "clock: ~%d gate levels; schedule: %d steps@."
      (Bistpath_datapath.Timing.clock_levels ~width r.Flow.datapath)
      (Bistpath_datapath.Timing.schedule_latency r.Flow.datapath);
    Format.printf "test time: %a@."
      Bistpath_datapath.Timing.pp_test_time
      (Bistpath_datapath.Timing.test_time ~width r.Flow.datapath
         ~sessions:(Bistpath_bist.Session.num_sessions r.Flow.sessions));
    Format.printf "partial-scan alternative: %.2f%% (scan regs: %s)@."
      (Bistpath_core.Partial_scan.overhead_percent ~width r.Flow.datapath)
      (String.concat ", " (Bistpath_core.Partial_scan.mfvs r.Flow.datapath))
  in
  let doc = "Area breakdown, timing estimate and DFT cost summary." in
  Cmd.v (Cmd.info "area" ~doc)
    Term.(const run $ common_term $ instance_arg $ width_arg $ flow_arg)

let pareto_cmd =
  let run c spec width flow cache_o =
    with_common c @@ fun budget ->
    let job = cli_job c ~width ~flow Job.Pareto spec in
    print_job c ?cache:(open_cache cache_o) ~budget job
  in
  let doc = "Area vs test-session Pareto front for one design." in
  Cmd.v (Cmd.info "pareto" ~doc)
    Term.(const run $ common_term $ instance_arg $ width_arg $ flow_arg $ cache_term)

let report_formats = [ "text"; "json"; "sarif" ]

let check_cmd =
  let list_rules_arg =
    let doc =
      "List every rule (id, worst severity, title) and exit without \
       checking anything; honours $(b,--format) text/json."
    in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let spec_opt_arg =
    let doc = "Benchmark tag (see $(b,synth list)) or path to a DFG file." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"DFG" ~doc)
  in
  let suppress_arg =
    let doc =
      "Comma-separated rule ids to suppress (e.g. $(b,DP004,BIST005)); \
       suppressed findings are still reported but never gate the exit \
       code."
    in
    Arg.(value & opt string "" & info [ "suppress" ] ~docv:"IDS" ~doc)
  in
  let vectors_arg =
    let doc =
      "Random vectors for the dynamic-equivalence rule EQ001 (0 disables \
       it; the static rules always run)."
    in
    Arg.(value & opt int 10 & info [ "vectors" ] ~docv:"N" ~doc)
  in
  let run c spec width flow transparency vectors format suppress list_rules =
    with_common c @@ fun budget ->
    if list_rules then begin
      valid_format report_formats format;
      match format with
      | "json" | "sarif" ->
        print_endline
          (Json.to_string
             (Json.Arr
                (List.map
                   (fun (id, sev, title) ->
                     Json.Obj
                       [ ("id", Json.Str id);
                         ("severity", Json.Str (Diagnostic.severity_label sev));
                         ("title", Json.Str title) ])
                   Check.rule_info)))
      | _ ->
        List.iter
          (fun (id, sev, title) ->
            Printf.printf "%-8s %-8s %s\n" id (Diagnostic.severity_label sev) title)
          Check.rule_info
    end
    else begin
    let spec =
      match spec with
      | Some s -> s
      | None -> or_die (Error "missing DFG argument (or pass --list-rules)")
    in
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    valid_format report_formats format;
    valid_vectors vectors;
    let suppress =
      List.filter_map
        (fun s ->
          let s = String.trim s in
          if s = "" then None
          else if Check.known_rule s then Some s
          else
            invalid_flag "--suppress" s
              ("a known rule id, one of: "
              ^ String.concat ", " (List.map (fun (id, _, _) -> id) Check.rule_info)))
        (String.split_on_char ',' suppress)
    in
    let total_errors = ref 0 in
    List.iter
      (fun job ->
        let rep =
          Runner.check_report ~suppress ~vectors ~budget inst job
            (Runner.flow ~budget inst job)
        in
        (match format with
        | "json" -> print_endline (Bistpath_util.Json.to_string (Check.to_json rep))
        | "sarif" -> print_endline (Json.to_string (Check.to_sarif rep))
        | _ -> print_string (Check.to_text rep));
        total_errors := !total_errors + Check.errors rep)
      (cli_jobs c ~width ~transparency Job.Check spec flow);
    if !total_errors > 0 then exit exit_findings
    end
  in
  let doc =
    "Statically verify a design's synthesized artifacts: allocation, data \
     path and RTL structure are re-derived and cross-checked rule by rule \
     (exit 2 on error findings; see check.mli for the rule table)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ common_term $ spec_opt_arg $ width_arg $ flows_arg ~verb:"verify"
      $ transparency_arg
      $ vectors_arg
      $ format_arg report_formats ~per:"NDJSON object / SARIF 2.1.0 document per checked flow"
      $ suppress_arg
      $ list_rules_arg)

(* `synth analyze`: run the abstract interpreter on its own — per-value
   ranges, the ABS rule family, and the width-narrowing plan with its
   estimated area savings. Exit 0 clean, 2 on error findings, 3 when an
   injected absint.fixpoint fault degrades the analysis. *)
let analyze_cmd =
  let assume_arg =
    let doc =
      "Assert that primary input $(b,VAR) only takes values in \
       $(b,[LO,HI]) (repeatable). Unlisted inputs stay full-range. \
       Assumptions sharpen the reported ranges and arm the May-verdict \
       ABS001/ABS002 findings; they never feed the $(b,--narrow) plan."
    in
    Arg.(value & opt_all string [] & info [ "assume" ] ~docv:"VAR=LO:HI" ~doc)
  in
  let parse_assume ~width s =
    let fail () =
      invalid_flag "--assume" s "VAR=LO:HI with 0 <= LO <= HI < 2^width"
    in
    match String.index_opt s '=' with
    | None -> fail ()
    | Some i -> (
      let v = String.sub s 0 i in
      let range = String.sub s (i + 1) (String.length s - i - 1) in
      match String.split_on_char ':' range with
      | [ lo; hi ] -> (
        match (int_of_string_opt (String.trim lo), int_of_string_opt (String.trim hi)) with
        | Some lo, Some hi when 0 <= lo && lo <= hi && hi < 1 lsl width ->
          (String.trim v, (lo, hi))
        | _ -> fail ())
      | _ -> fail ())
  in
  let run c spec width flow format assumes_raw =
    with_common c @@ fun budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    valid_format report_formats format;
    let assumes = List.map (parse_assume ~width) assumes_raw in
    List.iter
      (fun (v, _) ->
        if not (List.mem v inst.B.dfg.Bistpath_dfg.Dfg.inputs) then
          invalid_flag "--assume" v
            ("a primary input of the design ("
            ^ String.concat ", " inst.B.dfg.Bistpath_dfg.Dfg.inputs
            ^ ")"))
      assumes;
    let jobs = cli_jobs c ~width Job.Check spec flow in
    let total_errors = ref 0 in
    let degraded = ref false in
    List.iter
      (fun job ->
        let design = inst.B.tag ^ "/" ^ job.Job.flow in
        let r = Runner.flow ~budget inst job in
        match
          Check.analyze ~budget
            (Check.ctx_of_flow ~assumes ~design ~width inst.B.dfg inst.B.massign
               ~policy:inst.B.policy r)
        with
        | exception Inject.Injected site ->
          Printf.eprintf "synth: analyze %s degraded: injected fault at site %s\n"
            design site;
          degraded := true
        | rep, dres, control ->
          let plan = Option.map (Absint.plan_of_control ~width r.Flow.datapath) control in
          (match format with
          | "json" ->
            let value_json (v, (iv : Interval.t)) =
              Json.Obj
                [ ("name", Json.Str v);
                  ("lo", Json.Num (float_of_int iv.Interval.lo));
                  ("hi", Json.Num (float_of_int iv.Interval.hi));
                  ("bits", Json.Num (float_of_int (Interval.bits iv)));
                ]
            in
            let component_json (cmp : Absint.component) =
              Json.Obj
                [ ("name", Json.Str cmp.Absint.name);
                  ( "kind",
                    Json.Str
                      (match cmp.Absint.comp with
                      | `Register -> "register"
                      | `Unit -> "unit") );
                  ("full_bits", Json.Num (float_of_int cmp.Absint.full_bits));
                  ("narrow_bits", Json.Num (float_of_int cmp.Absint.narrow_bits));
                  ("value", Json.Str (Interval.to_string cmp.Absint.value));
                ]
            in
            print_endline
              (Json.to_string
                 (Json.Obj
                    [ ("design", Json.Str design);
                      ("width", Json.Num (float_of_int width));
                      ("iterations", Json.Num (float_of_int dres.Absint.iterations));
                      ("widened", Json.Bool dres.Absint.widened);
                      ("values", Json.Arr (List.map value_json dres.Absint.env));
                      ( "narrow",
                        match plan with
                        | None -> Json.Null
                        | Some p ->
                          Json.Obj
                            [ ( "components",
                                Json.Arr (List.map component_json p.Absint.components) );
                              ("saved_bits", Json.Num (float_of_int p.Absint.saved_bits));
                              ("total_bits", Json.Num (float_of_int p.Absint.total_bits));
                              ("saved_percent", Json.Num (Absint.saved_percent p));
                            ] );
                      ("report", Check.to_json rep);
                    ]))
          | "sarif" -> print_endline (Json.to_string (Check.to_sarif rep))
          | _ ->
            Printf.printf "analyze %s: width %d, %d value(s), %d iteration(s)%s\n"
              design width (List.length dres.Absint.env) dres.Absint.iterations
              (if dres.Absint.widened then " (widened)" else "");
            Printf.printf "  value ranges:\n";
            List.iter
              (fun (v, (iv : Interval.t)) ->
                Printf.printf "    %-12s %-14s %d bit(s)\n" v (Interval.to_string iv)
                  (Interval.bits iv))
              dres.Absint.env;
            (match plan with
            | None ->
              Printf.printf
                "  narrowing plan unavailable (control table rejected)\n"
            | Some p ->
              Printf.printf "  narrowing plan (full -> inferred width):\n";
              List.iter
                (fun (cmp : Absint.component) ->
                  Printf.printf "    %-12s %-8s %2d -> %2d  %s\n" cmp.Absint.name
                    (match cmp.Absint.comp with
                    | `Register -> "register"
                    | `Unit -> "unit")
                    cmp.Absint.full_bits cmp.Absint.narrow_bits
                    (Interval.to_string cmp.Absint.value))
                p.Absint.components;
              Printf.printf
                "  estimated area savings: %d of %d component bit(s) (%.1f%%)\n"
                p.Absint.saved_bits p.Absint.total_bits (Absint.saved_percent p));
            print_string (Check.to_text rep));
          total_errors := !total_errors + Check.errors rep)
      jobs;
    if !degraded then exit exit_degraded;
    if !total_errors > 0 then exit exit_findings
  in
  let doc =
    "Abstract-interpretation report for a design: proven per-value ranges, \
     the proof-carrying ABS rule family, and the register/unit width \
     narrowing plan with its estimated area savings (exit 2 on error \
     findings)."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run $ common_term $ instance_arg $ width_arg $ flows_arg ~verb:"analyze"
      $ format_arg report_formats ~per:"NDJSON object / SARIF 2.1.0 document per analyzed flow"
      $ assume_arg)

(* `synth verify`: close the RTL loop. The emitted Verilog (or a user
   file, or a committed golden artifact) is parsed back, structurally
   matched against the in-memory data path and simulated on random
   vectors. Exit 0 equivalent, 2 mismatch, 4 unparsable RTL. *)
let verify_cmd =
  let formats = [ "text"; "json" ] in
  let rtl_arg =
    let doc =
      "Verify this RTL file instead of re-emitting (requires a single \
       $(b,--flow); combine with $(b,--bist)/$(b,--sessions) to state the \
       configuration the file was emitted with)."
    in
    Arg.(value & opt (some string) None & info [ "rtl" ] ~docv:"FILE" ~doc)
  in
  let bist_arg =
    let doc = "With $(b,--rtl): the file instantiates BIST register variants." in
    Arg.(value & flag & info [ "bist" ] ~doc)
  in
  let sessions_arg =
    let doc =
      "With $(b,--rtl): the file steers test sessions (implies $(b,--bist))."
    in
    Arg.(value & flag & info [ "sessions" ] ~doc)
  in
  let golden_arg =
    let doc =
      "Compare the emitted RTL against $(docv)/<spec>__<flow>.v (the \
       file name is the sanitized spec as written on the command line) \
       structurally: formatting and comment churn never fail; semantic \
       drift always does."
    in
    Arg.(value & opt (some string) None & info [ "golden" ] ~docv:"DIR" ~doc)
  in
  let update_golden_arg =
    let doc = "Rewrite the golden files under $(b,--golden) instead of comparing." in
    Arg.(value & flag & info [ "update-golden" ] ~doc)
  in
  let vectors_arg =
    let doc =
      "Random vectors for the simulation cross-check EQ002 (0 disables it; \
       the structural comparison RTL005 always runs)."
    in
    Arg.(value & opt int 16 & info [ "vectors" ] ~docv:"N" ~doc)
  in
  let run c spec width flow vectors format rtl_file bist_f sessions_f golden
      update_golden =
    with_common c @@ fun budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    valid_format formats format;
    valid_vectors vectors;
    let jobs = cli_jobs c ~width Job.Verify spec flow in
    let mismatches = ref 0 and unparsable = ref 0 in
    let json = format = "json" in
    let report_text label lines ok_note =
      if lines = [] then Printf.printf "verify %s: ok%s\n" label ok_note
      else begin
        Printf.printf "verify %s: MISMATCH\n" label;
        List.iter (fun l -> Printf.printf "  %s\n" l) lines
      end
    in
    let emit_report label result =
      match result with
      | Error diags ->
        incr unparsable;
        if json then
          print_endline
            (Bistpath_util.Json.to_string
               (Bistpath_util.Json.Obj
                  [
                    ("artifact", Bistpath_util.Json.Str label);
                    ("ok", Bistpath_util.Json.Bool false);
                    ("unparsable", Bistpath_util.Json.Bool true);
                    ( "diagnostics",
                      Bistpath_util.Json.Arr
                        (List.map
                           (fun d -> Bistpath_util.Json.Str (Diagnostic.to_string d))
                           diags) );
                  ]))
        else begin
          Printf.printf "verify %s: UNPARSABLE\n" label;
          List.iter
            (fun d -> Printf.printf "  %s\n" (Diagnostic.to_string d))
            diags
        end
      | Ok (rep : Equiv.report) ->
        let lines = List.map Equiv.line (Equiv.verdict result) in
        if lines <> [] then incr mismatches;
        if json then
          print_endline
            (Bistpath_util.Json.to_string
               (Bistpath_util.Json.Obj
                  [
                    ("artifact", Bistpath_util.Json.Str label);
                    ("ok", Bistpath_util.Json.Bool (lines = []));
                    ( "findings",
                      Bistpath_util.Json.Arr
                        (List.map (fun l -> Bistpath_util.Json.Str l) lines) );
                    ( "vectors",
                      Bistpath_util.Json.Num (float_of_int rep.Equiv.vectors_run) );
                  ]))
        else
          report_text label lines
            (Printf.sprintf " (%d vectors)" rep.Equiv.vectors_run)
    in
    (match (rtl_file, golden) with
    | Some file, _ ->
      let job =
        match jobs with
        | [ one ] -> one
        | _ -> or_die (Error "--rtl needs a single --flow (testable or traditional)")
      in
      let text =
        try In_channel.with_open_bin file In_channel.input_all
        with Sys_error e -> or_die (Error e)
      in
      let r = Runner.flow ~budget inst job in
      let bist = if bist_f || sessions_f then Some r.Flow.bist else None in
      let sessions = if sessions_f then Some r.Flow.sessions else None in
      emit_report
        (Printf.sprintf "%s/%s/%s" inst.B.tag job.Job.flow (Filename.basename file))
        (Equiv.verify ~vectors ~width ?bist ?sessions ~rtl:text r.Flow.datapath)
    | None, Some dir ->
      List.iter
        (fun job ->
          let label = job.Job.flow in
          let r = Runner.flow ~budget inst job in
          let current =
            Verilog.source ~width ~bist:r.Flow.bist ~sessions:r.Flow.sessions
              r.Flow.datapath
          in
          (* Keyed by the spec as written, not the instance tag: a DFG
             file may carry the same internal name as a benchmark tag
             while meaning a different design (single-function module
             assignment), and the two must not share a golden file. *)
          let path =
            Filename.concat dir
              (Printf.sprintf "%s__%s.v" (Verilog.sanitize spec) label)
          in
          let glabel = Printf.sprintf "%s/%s golden" inst.B.tag label in
          if update_golden then begin
            Bistpath_util.Atomic_io.mkdir_p dir;
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc current);
            if not json then Printf.printf "verify %s: updated %s\n" glabel path
          end
          else if not (Sys.file_exists path) then begin
            incr mismatches;
            report_text glabel
              [ Printf.sprintf "missing golden file %s (run --update-golden)" path ]
              ""
          end
          else begin
            let g = In_channel.with_open_bin path In_channel.input_all in
            if String.equal g current then report_text glabel [] " (byte-identical)"
            else
              match Equiv.drift ~golden:g ~current with
              | Ok [] -> report_text glabel [] " (formatting drift only)"
              | Ok diffs ->
                incr mismatches;
                report_text glabel (List.map (fun d -> "DRIFT " ^ d) diffs) ""
              | Error diags ->
                incr unparsable;
                Printf.printf "verify %s: UNPARSABLE\n" glabel;
                List.iter
                  (fun d -> Printf.printf "  %s\n" (Diagnostic.to_string d))
                  diags
          end)
        jobs
    | None, None ->
      List.iter
        (fun job ->
          let r = Runner.flow ~budget inst job in
          let dp = r.Flow.datapath in
          let variants =
            [
              ("plain", None, None);
              ("bist", Some r.Flow.bist, None);
              ("sessions", Some r.Flow.bist, Some r.Flow.sessions);
            ]
          in
          List.iter
            (fun (vname, bist, sessions) ->
              emit_report
                (Printf.sprintf "%s/%s/%s" inst.B.tag job.Job.flow vname)
                (Equiv.verify ~vectors ~width ?bist ?sessions
                   ~rtl:(Verilog.source ~width ?bist ?sessions dp)
                   dp))
            variants)
        jobs);
    if !unparsable > 0 then exit exit_invalid_input;
    if !mismatches > 0 then exit exit_findings
  in
  let doc =
    "Parse the emitted Verilog back and prove it equivalent to the \
     in-memory data path: structural netlist match (RTL005) plus a \
     random-vector simulation cross-check (EQ002). With $(b,--golden), \
     detect semantic drift against committed RTL instead. Exit 2 on \
     mismatch, 4 on unparsable RTL."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ common_term $ instance_arg $ width_arg $ flows_arg ~verb:"verify"
      $ vectors_arg
      $ format_arg formats ~per:"NDJSON object per verified artifact"
      $ rtl_arg $ bist_arg $ sessions_arg
      $ golden_arg $ update_golden_arg)

let atpg_cmd =
  let backtracks_arg =
    let doc = "PODEM backtrack budget per fault before aborting." in
    Arg.(value & opt int 10_000 & info [ "max-backtracks" ] ~docv:"N" ~doc)
  in
  let run c spec width max_backtracks =
    with_common c @@ fun budget ->
    let inst = or_die_input (Runner.load_instance ?max_errors:c.max_errors spec) in
    List.iter
      (fun (u : Massign.hw) ->
        let circuit =
          match u.Massign.kinds with
          | [ k ] -> Library.of_kind k ~width
          | kinds -> Library.alu kinds ~width
        in
        let cls =
          Telemetry.with_span "podem" ~attrs:[ ("unit", u.Massign.mid) ]
            (fun () -> Podem.classify_all ~max_backtracks ~budget circuit)
        in
        Printf.printf
          "%s: %d faults tested, %d proven redundant, %d aborted (%d distinct vectors)%s\n"
          u.Massign.mid
          (List.length cls.Podem.tested)
          (List.length cls.Podem.untestable)
          (List.length cls.Podem.aborted)
          (List.length (List.sort_uniq compare (List.map snd cls.Podem.tested)))
          (match cls.Podem.skipped with
          | [] -> ""
          | sk -> Printf.sprintf ", %d skipped" (List.length sk)))
      inst.B.massign.Massign.units
  in
  let doc =
    "Deterministic PODEM test generation for every functional unit of a design."
  in
  Cmd.v (Cmd.info "atpg" ~doc)
    Term.(const run $ common_term $ instance_arg $ width_arg $ backtracks_arg)

let export_cmd =
  let run c spec = with_common c @@ fun budget -> print_job c ~budget (cli_job c Job.Export spec) in
  let doc = "Print a design in the textual DFG format (re-loadable by every command)." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ common_term $ instance_arg)

let serve_cmd =
  let spool_arg =
    let doc =
      "Spool directory holding NDJSON job-spec files ($(b,*.ndjson), \
       $(b,*.jsonl), $(b,*.json); one JSON object per line). Use $(b,-) \
       (or omit) to read specs from stdin until EOF."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SPOOL" ~doc)
  in
  let out_arg =
    let doc =
      "Directory for per-job artifacts ($(docv)/<id>.out, <id>.err). \
       Defaults to $(b,SPOOL/results) (or $(b,./results) for stdin)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let journal_arg =
    let doc =
      "Write-ahead journal file. Defaults to $(b,SPOOL/journal.ndjson) \
       (or $(b,./journal.ndjson) for stdin)."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Replay the journal: jobs already done keep their results \
       (exactly-once), unfinished jobs re-run. Required when the \
       journal is non-empty."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let max_attempts_arg =
    let doc = "Attempts per job before a terminal failure record." in
    Arg.(value & opt (some string) None & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let retry_base_arg =
    let doc =
      "Backoff base in milliseconds: attempt $(i,n) waits \
       base*2^(n-1), scaled by deterministic per-job jitter in \
       [0.5, 1.5)."
    in
    Arg.(value & opt (some string) None & info [ "retry-base-ms" ] ~docv:"MS" ~doc)
  in
  let breaker_threshold_arg =
    let doc =
      "Consecutive failures that trip a job class's circuit breaker open."
    in
    Arg.(
      value & opt (some string) None & info [ "breaker-threshold" ] ~docv:"K" ~doc)
  in
  let breaker_cooldown_arg =
    let doc = "Seconds an open breaker waits before admitting a half-open probe." in
    Arg.(
      value & opt (some string) None & info [ "breaker-cooldown" ] ~docv:"SEC" ~doc)
  in
  let queue_cap_arg =
    let doc =
      "Bounded-queue capacity; spool ingestion pauses (backpressure) \
       while the queue is full."
    in
    Arg.(value & opt (some string) None & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let job_delay_arg =
    let doc =
      "Pause this many milliseconds before each attempt — a determinism \
       aid for crash-recovery and drain testing; leave 0 in production."
    in
    Arg.(value & opt (some string) None & info [ "job-delay-ms" ] ~docv:"MS" ~doc)
  in
  let seed_arg =
    let doc = "Root seed of the deterministic backoff jitter, drawn per job and attempt." in
    Arg.(value & opt (some string) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress per-job progress lines on stderr." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let metrics_arg =
    let doc =
      "Write a Prometheus text-exposition snapshot to $(docv) — queue \
       depth, per-class breaker states, retry counts and job-latency \
       p50/p90/p99 — refreshed atomically (tmp+rename) while the \
       daemon runs, so external scrapers always read a complete file."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let metrics_interval_arg =
    let doc = "Milliseconds between $(b,--metrics) snapshot refreshes." in
    Arg.(
      value & opt (some string) None & info [ "metrics-interval-ms" ] ~docv:"MS" ~doc)
  in
  let trace_keep_arg =
    let doc =
      "With $(b,--trace-dir), keep at most $(docv) per-job trace files \
       on disk (oldest are removed first). The ring is per process: with \
       $(b,--workers) each worker keeps its own, so up to N*$(docv) files \
       remain."
    in
    Arg.(value & opt (some string) None & info [ "trace-keep" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc =
      "Fleet mode: fork $(docv) crash-isolated worker processes that claim \
       jobs from a shared lease spool (lock-free atomic renames) while the \
       supervisor only ingests, watches heartbeats and recovers dead \
       workers' leases. 0 (the default) runs jobs in-process."
    in
    Arg.(value & opt (some string) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let heartbeat_interval_arg =
    let doc = "Fleet worker heartbeat period in milliseconds." in
    Arg.(
      value
      & opt (some string) None
      & info [ "heartbeat-interval-ms" ] ~docv:"MS" ~doc)
  in
  let lease_expiry_arg =
    let doc =
      "A fleet worker silent for more than $(docv) milliseconds is presumed \
       wedged: it is killed and its leases are stolen back to the pending \
       queue."
    in
    Arg.(
      value & opt (some string) None & info [ "lease-expiry-ms" ] ~docv:"MS" ~doc)
  in
  let fleet_term =
    Term.(
      const (fun w hb exp -> (w, hb, exp))
      $ workers_arg $ heartbeat_interval_arg $ lease_expiry_arg)
  in
  let run c spool out journal resume max_attempts retry_base breaker_k breaker_cd
      queue_cap job_delay seed quiet metrics metrics_interval trace_keep
      (workers, heartbeat_interval, lease_expiry) cache_o =
    with_common c @@ fun _budget ->
    let source =
      match spool with
      | None | Some "-" -> Service.Stdin
      | Some dir -> Service.Spool_dir dir
    in
    let dc = Service.default_config source in
    let cache_dir =
      if not cache_o.cache_on then None
      else
        Some
          (Option.value cache_o.cache_dir
             ~default:
               (Filename.concat
                  (match source with Service.Spool_dir d -> d | Service.Stdin -> ".")
                  "cache"))
    in
    let cfg =
      {
        dc with
        Service.out_dir = Option.value out ~default:dc.Service.out_dir;
        journal_path = Option.value journal ~default:dc.Service.journal_path;
        resume;
        max_attempts =
          Option.value
            (pos_int_of ~flag:"--max-attempts" max_attempts)
            ~default:dc.Service.max_attempts;
        retry_base_ms =
          nonneg_float_of ~flag:"--retry-base-ms"
            ~default:dc.Service.retry_base_ms retry_base;
        breaker_threshold =
          Option.value
            (pos_int_of ~flag:"--breaker-threshold" breaker_k)
            ~default:dc.Service.breaker_threshold;
        breaker_cooldown_s =
          nonneg_float_of ~flag:"--breaker-cooldown"
            ~default:dc.Service.breaker_cooldown_s breaker_cd;
        queue_cap =
          Option.value
            (pos_int_of ~flag:"--queue-cap" queue_cap)
            ~default:dc.Service.queue_cap;
        job_delay_ms = nonneg_int_of ~flag:"--job-delay-ms" ~default:0 job_delay;
        default_timeout_s = c.timeout;
        default_leaf_budget = c.leaf_budget;
        seed =
          Option.value (pos_int_of ~flag:"--seed" seed) ~default:dc.Service.seed;
        verbose = not quiet;
        metrics_path = metrics;
        metrics_interval_ms =
          Option.value
            (pos_int_of ~flag:"--metrics-interval-ms" metrics_interval)
            ~default:dc.Service.metrics_interval_ms;
        trace_dir = c.trace_dir;
        trace_keep =
          Option.value
            (pos_int_of ~flag:"--trace-keep" trace_keep)
            ~default:dc.Service.trace_keep;
        cache_dir;
        cache_max_mb = cache_o.cache_max_mb;
        workers =
          nonneg_int_of ~flag:"--workers" ~default:dc.Service.workers workers;
        heartbeat_interval_ms =
          Option.value
            (pos_int_of ~flag:"--heartbeat-interval-ms" heartbeat_interval)
            ~default:dc.Service.heartbeat_interval_ms;
        lease_expiry_ms =
          Option.value
            (pos_int_of ~flag:"--lease-expiry-ms" lease_expiry)
            ~default:dc.Service.lease_expiry_ms;
      }
    in
    let dispatch (cfg : Service.config) =
      if cfg.workers > 0 then Fleet.run cfg else Service.run cfg
    in
    match dispatch cfg with
    | exception Sys_error msg ->
      (* setup problems (missing spool dir, refused journal) are
         invalid input, not an internal error *)
      prerr_endline ("synth: " ^ Diagnostic.to_string (Diagnostic.error msg));
      exit exit_invalid_input
    | stats ->
      (* one machine-parsable summary line on stdout; artifacts live in
         the results directory *)
      Printf.printf
        "{\"accepted\":%d,\"completed\":%d,\"degraded\":%d,\"failed\":%d,\
         \"rejected_specs\":%d,\"retries\":%d,\"breaker_trips\":%d,\
         \"journal_errors\":%d,\"pending\":%d,\"drained\":%b,\"workers\":%d,\
         \"worker_deaths_signal\":%d,\"worker_deaths_exit\":%d,\
         \"lease_steals\":%d,\"worker_restarts\":%d}\n"
        stats.Service.accepted stats.Service.completed stats.Service.degraded
        stats.Service.failed stats.Service.rejected_specs stats.Service.retries
        stats.Service.breaker_trips stats.Service.journal_errors
        stats.Service.pending stats.Service.drained stats.Service.workers
        stats.Service.worker_deaths_signal stats.Service.worker_deaths_exit
        stats.Service.lease_steals stats.Service.worker_restarts;
      (* Worker-death causes, each named distinctly: a signal death is
         outside pressure (OOM killer, chaos), a nonzero exit is a
         worker-loop bug worth a report, a heartbeat-expiry steal is a
         wedged worker the fleet healed around. None of them changes
         the exit-code protocol — every affected job was re-run or
         recorded as failed, and those outcomes are what exit codes
         report. *)
      if stats.Service.worker_deaths_signal > 0 then
        Printf.eprintf
          "synth: %d worker(s) died by signal; their leases were recovered \
           and re-run\n"
          stats.Service.worker_deaths_signal;
      if stats.Service.worker_deaths_exit > 0 then
        Printf.eprintf
          "synth: %d worker(s) exited nonzero (worker-loop error, not a job \
           failure)\n"
          stats.Service.worker_deaths_exit;
      if stats.Service.lease_steals > 0 then
        Printf.eprintf
          "synth: %d lease(s) stolen from heartbeat-expired worker(s)\n"
          stats.Service.lease_steals;
      if stats.Service.worker_restarts > 0 then
        Printf.eprintf "synth: %d replacement worker(s) forked\n"
          stats.Service.worker_restarts;
      (* Exit-3 triage, most actionable cause first. "failed" now means
         accepted jobs that exhausted their attempts — spec rejections
         are counted (and reported) separately, and budget-truncated
         jobs are "degraded", not failures: their best-so-far results
         were committed. *)
      if stats.Service.drained && stats.Service.pending > 0 then begin
        Printf.eprintf
          "synth: degraded: drain requested with %d job(s) pending (rerun with \
           --resume to finish them)\n"
          stats.Service.pending;
        exit exit_degraded
      end
      else if stats.Service.failed > 0 || stats.Service.rejected_specs > 0 then begin
        if stats.Service.failed > 0 then
          Printf.eprintf "synth: %d job(s) failed permanently\n" stats.Service.failed;
        if stats.Service.rejected_specs > 0 then
          Printf.eprintf "synth: %d job spec(s) rejected\n" stats.Service.rejected_specs;
        exit exit_degraded
      end
      else if stats.Service.degraded > 0 then begin
        Printf.eprintf
          "synth: degraded: %d job(s) budget-truncated (best-so-far results \
           committed)\n"
          stats.Service.degraded;
        exit exit_degraded
      end
  in
  let doc =
    "Run as a supervised batch service: crash-isolated jobs from a spool \
     directory or stdin, with retries, circuit breakers and a crash-safe \
     journal ($(b,--resume) continues after a kill)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ common_term $ spool_arg $ out_arg $ journal_arg $ resume_arg
      $ max_attempts_arg $ retry_base_arg $ breaker_threshold_arg
      $ breaker_cooldown_arg $ queue_cap_arg $ job_delay_arg $ seed_arg
      $ quiet_arg $ metrics_arg $ metrics_interval_arg $ trace_keep_arg
      $ fleet_term $ cache_term)

let cache_cmd =
  (* maintenance works on the directory, enabled or not: no --cache
     flag here, just --cache-dir (with the CLI default) *)
  let dir_arg =
    let doc = "Result-cache directory to operate on." in
    Arg.(value & opt string ".bistpath-cache" & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let open_dir dir =
    match Store.open_ ~dir () with
    | store -> store
    | exception Sys_error msg ->
      prerr_endline ("synth: " ^ Diagnostic.to_string (Diagnostic.error msg));
      exit exit_invalid_input
  in
  let stats_cmd =
    let run dir =
      let s = Store.stats (open_dir dir) in
      Printf.printf "dir: %s\nentries: %d\nbytes: %d\n" dir s.Store.entries
        s.Store.bytes
    in
    let doc = "Entry count and on-disk size of the result cache." in
    Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let max_mb_arg =
      let doc = "Evict least-recently-used entries until the cache fits $(docv) megabytes." in
      Arg.(required & opt (some string) None & info [ "cache-max-mb" ] ~docv:"MB" ~doc)
    in
    let run dir max_mb =
      let max_mb =
        match pos_int_of ~flag:"--cache-max-mb" (Some max_mb) with
        | Some mb -> mb
        | None -> assert false
      in
      let removed = Store.gc (open_dir dir) ~max_bytes:(max_mb * 1024 * 1024) in
      Printf.printf "evicted: %d\n" removed
    in
    let doc = "Evict least-recently-used cache entries down to a size cap." in
    Cmd.v (Cmd.info "gc" ~doc) Term.(const run $ dir_arg $ max_mb_arg)
  in
  let clear_cmd =
    let run dir =
      let removed = Store.clear (open_dir dir) in
      Printf.printf "removed: %d\n" removed
    in
    let doc = "Remove every entry from the result cache." in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const run $ dir_arg)
  in
  let doc =
    "Inspect and maintain the content-addressed result cache \
     ($(b,stats), $(b,gc), $(b,clear))."
  in
  Cmd.group (Cmd.info "cache" ~doc) [ stats_cmd; gc_cmd; clear_cmd ]

let list_cmd =
  let run () =
    List.iter
      (fun tag ->
        match B.by_tag tag with
        | None -> ()
        | Some inst ->
          Printf.printf "%-8s %2d ops, %d steps, %s\n" tag
            (List.length inst.B.dfg.Bistpath_dfg.Dfg.ops)
            (Bistpath_dfg.Dfg.num_csteps inst.B.dfg)
            (Bistpath_dfg.Massign.describe inst.B.massign inst.B.dfg))
      B.all_tags
  in
  let doc = "List the built-in benchmark DFGs." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc = "BIST-aware data path allocation (Parulkar/Gupta/Breuer, DAC 1995)" in
  let info = Cmd.info "synth" ~version:"1.0.0" ~doc in
  let cmds =
    [ run_cmd; compare_cmd; tables_cmd; figures_cmd; ablation_cmd; rtl_cmd;
      dot_cmd; coverage_cmd; atpg_cmd; tb_cmd; vcd_cmd; area_cmd; pareto_cmd;
      check_cmd; analyze_cmd; verify_cmd; export_cmd; serve_cmd; cache_cmd;
      list_cmd ]
  in
  (* A first argument that is neither a subcommand nor an option is a DFG
     spec: treat `synth data/Paulin.dfg --stats` as `synth run ...`. *)
  let argv =
    let names = List.map Cmd.name cmds in
    match Array.to_list Sys.argv with
    | exe :: first :: rest
      when String.length first > 0 && first.[0] <> '-'
           && not (List.mem first names) ->
      Array.of_list (exe :: "run" :: first :: rest)
    | _ -> Sys.argv
  in
  exit (Cmd.eval ~argv (Cmd.group ~default:run_term info cmds))
