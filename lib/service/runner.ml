module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Stage = Bistpath_core.Stage
module Policy = Bistpath_dfg.Policy
module Parser = Bistpath_dfg.Parser
module Frontend = Bistpath_dfg.Frontend
module Dfg = Bistpath_dfg.Dfg
module Diagnostic = Bistpath_resilience.Diagnostic
module Verilog = Bistpath_rtl.Verilog
module Equiv = Bistpath_rtl.Equiv
module Bist_sim = Bistpath_gatelevel.Bist_sim
module Session = Bistpath_bist.Session
module Pareto = Bistpath_bist.Pareto
module Check = Bistpath_check.Check
module Json = Bistpath_util.Json
module Store = Bistpath_cache.Store
module Telemetry = Bistpath_telemetry.Telemetry

type error = Invalid_input of string list | Check_findings of string list

(* Benchmark tag, .beh program or textual DFG file, with accumulated
   diagnostics (capped at [max_errors]) pre-rendered as lines. *)
let load_instance ?max_errors spec =
  match B.by_tag spec with
  | Some inst -> Ok inst
  | None ->
    let instance_of_dfg dfg =
      let massign = Bistpath_core.Module_assign.single_function dfg in
      { B.tag = dfg.Dfg.name; dfg; massign; policy = Policy.default }
    in
    if Sys.file_exists spec then begin
      let locate d = { d with Diagnostic.file = Some spec } in
      let render ds = List.map (fun d -> Diagnostic.to_string (locate d)) ds in
      if Filename.check_suffix spec ".beh" then
        (* behavioural program: compile, schedule as soon as possible *)
        let text = In_channel.with_open_text spec In_channel.input_all in
        let name = Filename.remove_extension (Filename.basename spec) in
        match Frontend.compile_diags ~name ?max_errors text with
        | Ok dfg -> Ok (instance_of_dfg dfg)
        | Error ds -> Error (render ds)
      else begin
        let u, diags = Parser.parse_file_diags ?max_errors spec in
        if List.exists (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) diags
        then Error (List.map Diagnostic.to_string diags)
        else
          match Parser.to_dfg_diags ?max_errors u with
          | Ok dfg -> Ok (instance_of_dfg dfg)
          | Error ds -> Error (render ds)
      end
    end
    else
      Error
        [ Printf.sprintf "unknown benchmark %S (and no such file); known: %s" spec
            (String.concat ", " B.all_tags) ]

(* [Job.of_json] only accepts known flow names. *)
let style_of_job (job : Job.t) =
  match Flow.parse_style job.Job.flow with
  | Ok style -> style
  | Error msg -> invalid_arg ("Runner: " ^ msg)

let flow ~budget (inst : B.instance) (job : Job.t) =
  Flow.run ~budget ~width:job.Job.width ~transparency:job.Job.transparency
    ~style:(style_of_job job) inst.B.dfg inst.B.massign ~policy:inst.B.policy

let render_run (inst : B.instance) r =
  Format.asprintf "%a@.@.%a@.@.test sessions: %a@." Dfg.pp inst.B.dfg
    Flow.pp_result r Session.pp r.Flow.sessions

let render_rtl ~width ?regw ?unitw ~bist ~wrapper r =
  let bist_sol = if bist then Some r.Flow.bist else None in
  let sessions = if wrapper then Some r.Flow.sessions else None in
  let module_ =
    Verilog.emit ~width ?bist:bist_sol ?sessions ?regw ?unitw r.Flow.datapath
  in
  (* [Verilog.source]'s layout, around the one emitted module *)
  Verilog.primitives ~width ^ "\n" ^ module_ ^ "\n"
  ^
  if wrapper then
    let golden =
      Bistpath_rtl.Bist_wrapper.golden_signatures ~width ~emitted:module_ r.Flow.datapath
        r.Flow.bist r.Flow.sessions
    in
    Bistpath_rtl.Bist_wrapper.emit ~width ~golden r.Flow.datapath r.Flow.bist
      r.Flow.sessions
    ^ "\n"
  else ""

let check_report ?suppress ?(vectors = 10) ~budget (inst : B.instance) (job : Job.t) r =
  Check.run ?suppress ~budget
    (Check.ctx_of_flow ~vectors ~transparency:job.Job.transparency
       ~design:(inst.B.tag ^ "/" ^ job.Job.flow)
       ~width:job.Job.width inst.B.dfg inst.B.massign ~policy:inst.B.policy r)

(* Terminal artifact stage: the whole rendered output, keyed from the
   spec's schedule root hash plus the job parameters, so a warm job is
   served byte-identical without running the flow at all. This is where
   the CLI and serve alike look results up and commit them; without a
   store nothing is counted and no I/O happens. *)
let cached ?cache ~budget ~stage ~extra (inst : B.instance) (job : Job.t) render =
  match cache with
  | None -> (render (), None)
  | Some store -> (
    let key =
      Flow.artifact_key ~stage
        ~spec_hash:(Flow.spec_hash inst.B.dfg inst.B.massign ~policy:inst.B.policy)
        ~params:
          (Json.Obj
             (( "flow",
                Flow.flow_params_json ~width:job.Job.width
                  ~transparency:job.Job.transparency ~style:(style_of_job job) () )
             :: extra))
    in
    let sname = Stage.name stage in
    match Store.find store ~stage:sname ~key with
    | Some payload ->
      Telemetry.incr "cache.hit";
      Telemetry.incr ("cache.hit." ^ sname);
      (payload, Some `Hit)
    | None ->
      Telemetry.incr "cache.miss";
      Telemetry.incr ("cache.miss." ^ sname);
      let payload = render () in
      (* a budget-truncated artifact is valid but not deterministic in
         the key *)
      if not (Bistpath_resilience.Budget.should_stop budget) then
        Store.put store ~stage:sname ~key payload;
      (payload, Some `Miss))

let rtl ?cache ~budget ~bist ~wrapper inst (job : Job.t) =
  cached ?cache ~budget ~stage:Stage.Rtl
    ~extra:
      [ ("artifact", Json.Str "rtl"); ("bist", Json.Bool bist); ("wrapper", Json.Bool wrapper) ]
    inst job
    (fun () -> render_rtl ~width:job.Job.width ~bist ~wrapper (flow ~budget inst job))

(* Parse-back equivalence of the emitted RTL. Never cached: the point
   is to re-exercise the emitter/parser loop, and a stored verdict would
   vouch for bytes it never saw. Failures are deterministic for a fixed
   job, so they use the same give-up classification as [check] (the
   breaker is not fed). *)
let verify ~budget inst (job : Job.t) =
  let width = job.Job.width in
  let r = flow ~budget inst job in
  let rtl = render_rtl ~width ~bist:true ~wrapper:false r in
  let result = Equiv.verify ~width ~bist:r.Flow.bist ~rtl r.Flow.datapath in
  match (result, Equiv.verdict result) with
  | Ok rep, [] ->
    Ok
      ( Json.to_string
          (Json.Obj
             [
               ("design", Json.Str (inst.B.tag ^ "/" ^ job.Job.flow));
               ("equivalent", Json.Bool true);
               ("vectors_run", Json.Num (float_of_int rep.Equiv.vectors_run));
             ])
        ^ "\n",
        None )
  | _, findings -> Error (Check_findings (List.map Equiv.line findings))

let execute ?max_errors ?cache ~budget (job : Job.t) =
  match load_instance ?max_errors job.Job.spec with
  | Error lines -> Error (Invalid_input lines)
  | Ok inst -> (
    let width = job.Job.width in
    let report ~artifact render =
      Ok
        (cached ?cache ~budget ~stage:Stage.Report
           ~extra:[ ("artifact", Json.Str artifact) ]
           inst job
           (fun () -> render (flow ~budget inst job)))
    in
    match job.Job.pipeline with
    | Job.Check ->
      let rep = check_report ~budget inst job (flow ~budget inst job) in
      if Check.errors rep > 0 then
        Error (Check_findings (List.map Diagnostic.to_string (Check.diagnostics rep)))
      else Ok (Json.to_string (Check.to_json rep) ^ "\n", None)
    | Job.Verify -> verify ~budget inst job
    | Job.Run -> report ~artifact:"run" (render_run inst)
    | Job.Pareto ->
      let transparency = job.Job.transparency in
      (* Transparency fronts were once cached from a sweep without it:
         their own artifact name keeps those stale entries unserved. *)
      let artifact = if transparency then "pareto-transparent" else "pareto" in
      report ~artifact (fun r ->
          Format.asprintf "%a@." Pareto.pp
            (Pareto.explore ~width ~transparency ~budget ~minimum:r.Flow.bist
               r.Flow.datapath))
    | Job.Rtl -> Ok (rtl ?cache ~budget ~bist:true ~wrapper:false inst job)
    | Job.Coverage ->
      let r = flow ~budget inst job in
      let rep =
        Bist_sim.run ~budget ~width ~pattern_count:job.Job.patterns r.Flow.datapath
          r.Flow.bist
      in
      Ok (Format.asprintf "%a@." Bist_sim.pp rep, None)
    | Job.Export -> Ok (Parser.to_string inst.B.dfg, None))
