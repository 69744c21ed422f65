(* In-process replay of perfbench operations.

   Usage: tracer.exe (traced|counts|plain) OPS.json OUT.ndjson WORKDIR

   OPS.json is a JSON array written by perfbench/run.py. Each element is
   either a CLI operation {"cmd","design","flow"} (the same work one
   `synth` process does for that command) or a serve job {"job":{...}}
   (one claim/attempt/commit cycle of a fleet worker). The ops run in
   order, in this one process, through the public library functions in
   the order bin/synth.ml and Service.Runner call them.

   In [traced] mode every library call of interest is timed, and the
   op's own Telemetry counters are collected with a fresh recorder.
   Layer times are disjoint sub-intervals of the op time, so
   [ms - sum layers] is the op's unattributed remainder. Extra
   measurements that would double count (parse-back inside equivalence,
   per-family check runs, cache probes) are taken outside the op's
   timed interval and reported under "shares". [counts] mode is
   [traced] with no shares, the recorder on a synthetic clock (its own
   allocations, histogram buckets keyed by duration, then no longer
   depend on timing) and GC words read per layer; with BISTPATH_JOBS=1
   two runs must agree on every work counter and GC word. [plain] mode
   runs the same calls with no recorder, timers or GC reads, for the
   tracing overhead figure.

   One output line per op:
   {"i","kind","ms","layers","shares","words","alloc_w","counters",
    "timing","digest","exit"}, then a final {"top_heap_words"} line. The digest
   is the MD5 of the op's stdout (CLI ops) or of its result artifact
   (serve jobs), so run.py can check it against the CLI's. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Stage = Bistpath_core.Stage
module Testable_alloc = Bistpath_core.Testable_alloc
module Traditional_alloc = Bistpath_core.Traditional_alloc
module Sharing = Bistpath_core.Sharing
module Module_assign = Bistpath_core.Module_assign
module Dfg = Bistpath_dfg.Dfg
module Parser = Bistpath_dfg.Parser
module Policy = Bistpath_dfg.Policy
module Area = Bistpath_datapath.Area
module Datapath = Bistpath_datapath.Datapath
module Interconnect = Bistpath_datapath.Interconnect
module Regalloc = Bistpath_datapath.Regalloc
module Control = Bistpath_datapath.Control
module Allocator = Bistpath_bist.Allocator
module Session = Bistpath_bist.Session
module Pareto = Bistpath_bist.Pareto
module Verilog = Bistpath_rtl.Verilog
module Equiv = Bistpath_rtl.Equiv
module Rtl_parser = Bistpath_rtl.Parser
module Bist_sim = Bistpath_gatelevel.Bist_sim
module Check = Bistpath_check.Check
module Absint = Bistpath_absint.Absint
module Interval = Bistpath_absint.Interval
module Store = Bistpath_cache.Store
module Job = Bistpath_service.Job
module Journal = Bistpath_service.Journal
module Lease = Bistpath_service.Lease
module Runner = Bistpath_service.Runner
module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Diagnostic = Bistpath_resilience.Diagnostic
module Telemetry = Bistpath_telemetry.Telemetry
module Json = Bistpath_util.Json
module Atomic_io = Bistpath_util.Atomic_io

let width = 8
let budget = Budget.unlimited
let traced = ref true
let with_shares = ref true
let count_words = ref false

(* --- per-op accumulators ------------------------------------------- *)

let layers : (string * float ref) list ref = ref []
let words : (string * float ref) list ref = ref []
let shares : (string * float ref) list ref = ref []
let deferred : (unit -> unit) list ref = ref []

let bump tbl name v =
  match List.assoc_opt name !tbl with
  | Some r -> r := !r +. v
  | None -> tbl := (name, ref v) :: !tbl

let clock = Monotonic_clock.now
let ms_since t0 = Int64.to_float (Int64.sub (clock ()) t0) /. 1e6

(* Exact only at a minor-heap boundary: OCaml 5.1 over- or under-counts
   the live part of the minor heap, so [counts] mode empties it first.
   Other modes skip the GC reads, which would perturb their timings. *)
let alloc_words () =
  if not !count_words then 0.0
  else begin
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  end

(* Time one library call as a layer of the current op. *)
let time name f =
  if not !traced then f ()
  else begin
    let w0 = alloc_words () in
    let t0 = clock () in
    let x = f () in
    bump layers name (ms_since t0);
    if !count_words then bump words name (alloc_words () -. w0);
    x
  end

(* Measure [f] after the op's timed interval has closed: a share of a
   layer (or a probe) that must not be counted twice. *)
let share name f =
  if !traced && !with_shares then
    deferred :=
      (fun () ->
        let t0 = clock () in
        ignore (f ());
        bump shares name (ms_since t0))
      :: !deferred

(* --- the flow, call for call as Flow.run does it uncached ----------- *)

let load_instance spec =
  match B.by_tag spec with
  | Some inst -> inst
  | None -> (
    let u, diags = Parser.parse_file_diags spec in
    if List.exists (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) diags
    then failwith ("invalid design " ^ spec);
    match Parser.to_dfg_diags u with
    | Ok dfg ->
      {
        B.tag = dfg.Dfg.name;
        dfg;
        massign = Module_assign.single_function dfg;
        policy = Policy.default;
      }
    | Error _ -> failwith ("invalid design " ^ spec))

let load spec = time "dfg.load" (fun () -> load_instance spec)

let style_of = function
  | "traditional" -> Flow.Traditional
  | _ -> Flow.Testable Testable_alloc.default_options

let sd_weight dfg massign (regalloc : Regalloc.t) =
  let ctx = Sharing.make dfg massign in
  let memo = Hashtbl.create 8 in
  fun rid ->
    match Hashtbl.find_opt memo rid with
    | Some w -> w
    | None ->
      let w =
        match List.assoc_opt rid regalloc.Regalloc.classes with
        | Some vars -> Sharing.sd_vars ctx vars
        | None -> 0
      in
      Hashtbl.replace memo rid w;
      w

let flow (inst : B.instance) style =
  let dfg = inst.B.dfg and massign = inst.B.massign and policy = inst.B.policy in
  let model = Area.default in
  let regalloc =
    time "regalloc" @@ fun () ->
    match style with
    | Flow.Traditional -> Traditional_alloc.allocate dfg ~policy
    | Flow.Testable options -> fst (Testable_alloc.allocate ~options dfg massign ~policy)
  in
  let datapath =
    time "interconnect" @@ fun () ->
    let objective =
      match style with
      | Flow.Traditional -> { Interconnect.weight = (fun _ -> 0) }
      | Flow.Testable _ -> { Interconnect.weight = sd_weight dfg massign regalloc }
    in
    Interconnect.optimize dfg massign regalloc ~policy ~objective
  in
  let bist =
    time "bist.solve" @@ fun () ->
    Allocator.solve ~model ~width ~io_penalty_percent:100 ~transparency:false
      ~budget datapath
  in
  let sessions = time "sessions" @@ fun () -> Session.schedule ~budget bist in
  {
    Flow.style;
    regalloc;
    datapath;
    bist;
    sessions;
    registers = Datapath.allocated_register_count datapath;
    muxes = Datapath.mux_count datapath;
    overhead_percent = Allocator.overhead_percent ~model ~width datapath bist;
  }

let both_flows =
  [ ("traditional", Flow.Traditional);
    ("testable", Flow.Testable Testable_alloc.default_options) ]

let check_families =
  [ ("check.alloc", Bistpath_check.Alloc_rules.rules);
    ("check.datapath", Bistpath_check.Datapath_rules.rules);
    ("check.rtl", Bistpath_check.Rtl_rules.rules);
    ("check.equiv", Bistpath_check.Equiv_rules.rules);
    ("check.absint", Check.absint_family) ]

(* --- CLI commands: (stdout, exit code) ------------------------------ *)

let cmd_run inst fl =
  let r = flow inst (style_of fl) in
  ( Format.asprintf "%a@.@.%a@.@.test sessions: %a@." Dfg.pp inst.B.dfg
      Flow.pp_result r Session.pp r.Flow.sessions,
    0 )

let cmd_rtl_verify inst fl =
  let r = flow inst (style_of fl) in
  let dp = r.Flow.datapath in
  let payload =
    time "rtl.emit" @@ fun () ->
    Verilog.primitives ~width ^ "\n" ^ Verilog.emit ~width ~regw:[] ~unitw:[] dp ^ "\n"
  in
  share "rtl.parse" (fun () -> Rtl_parser.parse payload);
  match time "rtl.equiv" (fun () -> Equiv.verify ~width ~regw:[] ~rtl:payload dp) with
  | Error _ -> (payload, 4)
  | Ok rep ->
    (payload, if rep.Equiv.structural <> [] || rep.Equiv.functional <> None then 2 else 0)

let cmd_check inst =
  let b = Buffer.create 1024 in
  let errors = ref 0 in
  List.iter
    (fun (label, style) ->
      let r = flow inst style in
      let ctx =
        time "check.ctx" @@ fun () ->
        Check.ctx_of_flow ~vectors:10 ~transparency:false
          ~design:(inst.B.tag ^ "/" ^ label)
          ~width inst.B.dfg inst.B.massign ~policy:inst.B.policy r
      in
      let rep = time "check.run" @@ fun () -> Check.run ~suppress:[] ~budget ctx in
      List.iter
        (fun (name, rules) -> share name (fun () -> Check.run ~budget ~rules ctx))
        check_families;
      Buffer.add_string b (Check.to_text rep);
      errors := !errors + Check.errors rep)
    both_flows;
  (Buffer.contents b, if !errors > 0 then 2 else 0)

let comp_name = function `Register -> "register" | `Unit -> "unit"

let cmd_analyze inst =
  let b = Buffer.create 1024 in
  let errors = ref 0 in
  List.iter
    (fun (label, style) ->
      let design = inst.B.tag ^ "/" ^ label in
      let r = flow inst style in
      let dres =
        time "absint.solve" @@ fun () ->
        Absint.solve_dfg ~assumes:[] ~width ~policy:inst.B.policy inst.B.dfg
      in
      let control =
        time "control" @@ fun () ->
        try Some (Control.build r.Flow.datapath) with _ -> None
      in
      let plan =
        time "absint.narrow" @@ fun () ->
        Option.map (fun ctl -> Absint.narrow_plan ~width r.Flow.datapath ctl) control
      in
      let ctx =
        time "check.ctx" @@ fun () ->
        Check.ctx_of_flow ~assumes:[] ~design ~width inst.B.dfg inst.B.massign
          ~policy:inst.B.policy r
      in
      let rep =
        time "check.run" @@ fun () -> Check.run ~budget ~rules:Check.absint_family ctx
      in
      Printf.bprintf b "analyze %s: width %d, %d value(s), %d iteration(s)%s\n" design
        width (List.length dres.Absint.env) dres.Absint.iterations
        (if dres.Absint.widened then " (widened)" else "");
      Printf.bprintf b "  value ranges:\n";
      List.iter
        (fun (v, (iv : Interval.t)) ->
          Printf.bprintf b "    %-12s %-14s %d bit(s)\n" v (Interval.to_string iv)
            (Interval.bits iv))
        dres.Absint.env;
      (match plan with
      | None -> Printf.bprintf b "  narrowing plan unavailable (control table rejected)\n"
      | Some p ->
        Printf.bprintf b "  narrowing plan (full -> inferred width):\n";
        List.iter
          (fun (cmp : Absint.component) ->
            Printf.bprintf b "    %-12s %-8s %2d -> %2d  %s\n" cmp.Absint.name
              (comp_name cmp.Absint.comp) cmp.Absint.full_bits cmp.Absint.narrow_bits
              (Interval.to_string cmp.Absint.value))
          p.Absint.components;
        Printf.bprintf b "  estimated area savings: %d of %d component bit(s) (%.1f%%)\n"
          p.Absint.saved_bits p.Absint.total_bits (Absint.saved_percent p));
      Buffer.add_string b (Check.to_text rep);
      errors := !errors + Check.errors rep)
    both_flows;
  (Buffer.contents b, if !errors > 0 then 2 else 0)

let cmd_pareto inst fl =
  let r = flow inst (style_of fl) in
  let front = time "pareto" @@ fun () -> Pareto.explore ~width ~budget r.Flow.datapath in
  (Format.asprintf "%a@." Pareto.pp front, 0)

let cmd_coverage inst fl =
  let r = flow inst (style_of fl) in
  let rep =
    time "gatelevel.coverage" @@ fun () ->
    Bist_sim.run ~budget ~width ~pattern_count:255 r.Flow.datapath r.Flow.bist
  in
  (Format.asprintf "%a@." Bist_sim.pp rep, 0)

let cli_op ~cmd ~design ~flow:fl =
  let inst = load design in
  match cmd with
  | "run" -> cmd_run inst fl
  | "rtl-verify" -> cmd_rtl_verify inst fl
  | "check" -> cmd_check inst
  | "analyze" -> cmd_analyze inst
  | "pareto" -> cmd_pareto inst fl
  | "coverage" -> cmd_coverage inst fl
  | c -> failwith ("unknown command " ^ c)

(* --- serve jobs: one fleet worker cycle, in process ------------------ *)

type serve_state = {
  sjournal : Journal.t;  (* supervisor journal: accepts *)
  wjournal : Journal.t;  (* worker shard: start/done *)
  lease : Lease.t;
  store : Store.t;
  probe : Store.t;  (* a second store the put probe writes to *)
  out_dir : string;
}

let serve_state work =
  let path p = Filename.concat work p in
  Atomic_io.mkdir_p (path "out");
  {
    sjournal = Journal.open_ (path "journal.ndjson");
    wjournal = Journal.open_ (Journal.shard_path (path "journal.ndjson") 0);
    lease = Lease.create ~root:(path "fleet") ~slots:1;
    store = Store.open_ ~dir:(path "cache") ();
    probe = Store.open_ ~dir:(path "probe") ();
    out_dir = path "out";
  }

(* The terminal-artifact key Runner derives for run/rtl jobs, for the
   cache probes; [None] for pipelines whose artifact is never cached. *)
let artifact_key (job : Job.t) =
  let target =
    match job.Job.pipeline with
    | Job.Run -> Some (Stage.Report, [ ("artifact", Json.Str "run") ])
    | Job.Rtl ->
      Some
        ( Stage.Rtl,
          [ ("artifact", Json.Str "rtl"); ("bist", Json.Bool true);
            ("wrapper", Json.Bool false) ] )
    | _ -> None
  in
  Option.map
    (fun (stage, extra) ->
      let inst = load_instance job.Job.spec in
      ( Stage.name stage,
        Flow.artifact_key ~stage
          ~spec_hash:(Flow.spec_hash inst.B.dfg inst.B.massign ~policy:inst.B.policy)
          ~params:
            (Json.Obj
               (( "flow",
                  Flow.flow_params_json ~width ~transparency:job.Job.transparency
                    ~style:(style_of job.Job.flow) () )
               :: extra)) ))
    target

let flow_spans = [ ("regalloc", "regalloc"); ("interconnect", "interconnect");
                   ("bist_alloc", "bist.solve"); ("sessions", "sessions") ]

let serve_op st ~key (job : Job.t) =
  let id = job.Job.id in
  time "journal.append" (fun () -> Journal.append st.sjournal (Journal.Accept job));
  time "lease.claim" (fun () -> Lease.submit st.lease { Lease.job; attempts = 0 });
  let l =
    match time "lease.claim" (fun () -> Lease.claim st.lease ~slot:0) with
    | Some l -> l
    | None -> failwith ("lease claim failed for " ^ id)
  in
  let l = { l with Lease.attempts = l.Lease.attempts + 1 } in
  time "lease.claim" (fun () -> Lease.update st.lease ~slot:0 l);
  time "journal.append" (fun () ->
      Journal.append st.wjournal (Journal.Start { id; attempt = l.Lease.attempts }));
  let budget = Budget.create ~cancel:(Cancel.create ()) () in
  let execute () = Runner.execute ~cache:st.store ~budget job in
  let result =
    time "runner.job" @@ fun () ->
    if not !traced then execute ()
    else begin
      (* the job's Flow spans, read from the recorder Flow already
         feeds: shares of runner.job, not layers of their own *)
      let result, spans = Telemetry.collect execute in
      List.iter
        (fun (span, name) ->
          bump shares name (Int64.to_float (Telemetry.total_ns spans span) /. 1e6))
        flow_spans;
      List.iter (fun (name, n) -> Telemetry.incr ~by:n name) (Telemetry.counters spans);
      result
    end
  in
  match result with
  | Ok (artifact, cache) ->
    Atomic_io.write_file (Filename.concat st.out_dir (id ^ ".out")) artifact;
    time "journal.append" (fun () ->
        Journal.append st.wjournal
          (Journal.Done
             {
               id;
               attempt = l.Lease.attempts;
               status = "ok";
               reason = None;
               cache =
                 (match cache with
                 | Some `Hit -> Some "hit"
                 | Some `Miss -> Some "miss"
                 | None -> None);
             }));
    time "lease.claim" (fun () -> Lease.release st.lease ~slot:0 id);
    Option.iter
      (fun (stage, key) ->
        share "cache.put" (fun () -> Store.put st.probe ~stage ~key artifact))
      key;
    (artifact, 0)
  | Error (Runner.Invalid_input lines | Runner.Check_findings lines) ->
    (String.concat "\n" lines, 1)

(* --- driver ---------------------------------------------------------- *)

(* Counters that measure work done, compared across two traced runs of
   one seed; timing counters (parallel.busy_ns ...) are excluded. *)
let work_counters =
  [ "regalloc.sd_evals"; "regalloc.steps"; "regalloc.fresh_registers";
    "interconnect.orientations"; "bist.units"; "bist.embedding_candidates";
    "bist.embeddings_explored"; "absint.iterations"; "absint.solves";
    "bist_sim.patterns"; "bist_sim.faults";
    "check.rules_run"; "clique.iterations"; "cache.hit"; "cache.miss"; "cache.store" ]

let timing_counters = [ "parallel.busy_ns"; "parallel.idle_ns" ]

let num f = Json.Num f
let obj_of tbl = Json.Obj (List.rev_map (fun (k, r) -> (k, num !r)) !tbl)

let () =
  let mode, ops_file, out_file, work =
    match Sys.argv with
    | [| _; mode; ops; out; work |] -> (mode, ops, out, work)
    | _ ->
      prerr_endline "usage: tracer.exe (traced|counts|plain) OPS.json OUT.ndjson WORKDIR";
      exit 2
  in
  (match mode with
  | "traced" -> ()
  | "counts" ->
    with_shares := false;
    count_words := true;
    let tick = ref 0L in
    Telemetry.set_clock (fun () ->
        tick := Int64.add !tick 1000L;
        !tick)
  | "plain" -> traced := false
  | m -> failwith ("unknown mode " ^ m));
  let ops =
    match Json.parse (In_channel.with_open_bin ops_file In_channel.input_all) with
    | Ok (Json.Arr ops) -> ops
    | _ -> failwith "ops file is not a JSON array"
  in
  Atomic_io.mkdir_p work;
  let serve = lazy (serve_state work) in
  let str k o = Option.bind (Json.member k o) Json.to_str |> Option.value ~default:"" in
  Out_channel.with_open_bin out_file @@ fun oc ->
  List.iteri
    (fun i op ->
      layers := [];
      words := [];
      shares := [];
      deferred := [];
      let kind, run_op =
        match Json.member "job" op with
        | Some spec -> (
          match Job.of_json ~default_id:(Printf.sprintf "op%d" i) spec with
          | Ok job ->
            let st = Lazy.force serve in
            let key = if !traced && !with_shares then artifact_key job else None in
            Option.iter
              (fun (stage, key) ->
                (* probe the live store as the job's own first lookup
                   will find it: a miss first time, a hit on a repeat *)
                let t0 = clock () in
                ignore (Store.find st.store ~stage ~key);
                bump shares "cache.find" (ms_since t0))
              key;
            ( String.concat "|"
                [ job.Job.spec; Job.pipeline_name job.Job.pipeline; job.Job.flow ],
              fun () -> serve_op st ~key job )
          | Error e -> failwith e)
        | None ->
          let cmd = str "cmd" op and design = str "design" op and fl = str "flow" op in
          (String.concat "|" [ design; cmd; fl ], fun () -> cli_op ~cmd ~design ~flow:fl)
      in
      let w0 = alloc_words () in
      let t0 = clock () in
      let (out, code), counters =
        if !traced then
          let r, rec_ = Telemetry.collect run_op in
          (r, Telemetry.counters rec_)
        else (run_op (), [])
      in
      let ms = ms_since t0 in
      let alloc_w = alloc_words () -. w0 in
      List.iter (fun f -> f ()) (List.rev !deferred);
      let pick names =
        List.filter_map
          (fun n -> Option.map (fun v -> (n, num (float_of_int v))) (List.assoc_opt n counters))
          names
      in
      let line =
        Json.Obj
          [ ("i", num (float_of_int i));
            ("kind", Json.Str kind);
            ("ms", num ms);
            ("layers", obj_of layers);
            ("shares", obj_of shares);
            ("words", obj_of words);
            ("alloc_w", num alloc_w);
            ("counters", Json.Obj (pick work_counters));
            ("timing", Json.Obj (pick timing_counters));
            ("digest", Json.Str (Digest.to_hex (Digest.string out)));
            ("exit", num (float_of_int code)) ]
      in
      Out_channel.output_string oc (Json.to_string line ^ "\n"))
    ops;
  let st = Gc.quick_stat () in
  Out_channel.output_string oc
    (Json.to_string
       (Json.Obj [ ("top_heap_words", num (float_of_int st.Gc.top_heap_words)) ])
    ^ "\n")
