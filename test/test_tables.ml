(* The per-flow tables against their list-scan oracles (oracles.ml):
   [Control.build], which indexes routes, units and writers in one pass,
   and [Eval.run], which buckets the operations by step once, return what
   the scans returned, or raise the same exception with the same text, on
   the shipped designs, on random ones and on hand-corrupted data paths.
   Then the two savings around them: a coverage report with shared
   grading equals grading every unit alone, and [Check.run] times each
   rule family as one span. *)

module B = Bistpath_benchmarks.Benchmarks
module Dfg = Bistpath_dfg.Dfg
module Eval = Bistpath_dfg.Eval
module Massign = Bistpath_dfg.Massign
module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Runner = Bistpath_service.Runner
module Allocator = Bistpath_bist.Allocator
module Ipath = Bistpath_ipath.Ipath
module Bist_sim = Bistpath_gatelevel.Bist_sim
module Library = Bistpath_gatelevel.Library
module Lfsr = Bistpath_gatelevel.Lfsr
module Fault = Bistpath_gatelevel.Fault
module Telemetry = Bistpath_telemetry.Telemetry
module Check = Bistpath_check.Check
module Prng = Prng_ext

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let testable = Flow.Testable Testable_alloc.default_options
let flows = [ ("testable", testable); ("traditional", Flow.Traditional) ]

let run_flow style (inst : B.instance) =
  Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy

(* A value, or the exception's text. An [assert false] names its own
   file and line, so only the constructor is compared. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Assert_failure _ -> Error "Assert_failure"
  | exception e -> Error (Printexc.to_string e)

let data_file f =
  let up = Filename.concat Filename.parent_dir_name "data" in
  Filename.concat (if Sys.file_exists up then up else "data") f

let load spec =
  match Runner.load_instance spec with
  | Ok inst -> inst
  | Error lines -> Alcotest.fail (String.concat "\n" lines)

(* The 10 tags and the 13 data files, each with its flows' data paths. *)
let shipped =
  lazy
    (let data =
       let dir = Filename.dirname (data_file "ex1.dfg") in
       Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".dfg")
       |> List.sort compare |> List.map data_file
     in
     List.map (fun tag -> (tag, Option.get (B.by_tag tag))) B.all_tags
     @ List.map (fun f -> (f, load f)) data)

let same_table name dp =
  let got = outcome (fun () -> Control.build dp) in
  let want = outcome (fun () -> Oracles.control_build dp) in
  if got <> want then
    Alcotest.failf "%s: Control.build disagrees with the scan (%s vs %s)" name
      (match got with Ok _ -> "a table" | Error e -> e)
      (match want with Ok _ -> "a table" | Error e -> e);
  true

(* Random inputs for every declared input; sometimes one binding is
   dropped or an unknown one added, to reach the validation errors. *)
let random_inputs rng (dfg : Dfg.t) ~width =
  let inputs = List.map (fun v -> (v, Prng.int rng (1 lsl width))) dfg.Dfg.inputs in
  match Prng.int rng 8 with
  | 0 -> ( match inputs with _ :: rest -> rest | [] -> [])
  | 1 -> ("no_such_input", 1) :: inputs
  | _ -> inputs

let same_eval name rng (dfg : Dfg.t) =
  List.for_all
    (fun width ->
      let inputs = random_inputs rng dfg ~width in
      let got = outcome (fun () -> Eval.run dfg ~width ~inputs) in
      let want = outcome (fun () -> Oracles.eval_run dfg ~width ~inputs) in
      if got <> want then Alcotest.failf "%s: Eval.run disagrees with the scan" name;
      true)
    [ 1; 4; 8; 16 ]

(* One hand corruption of a data path: the kinds of damage the check
   rules report, each of which the control table either survives or
   rejects with a message naming what is wrong. *)
let corrupt rng (dp : Datapath.t) =
  let pick l = List.nth l (Prng.int rng (List.length l)) in
  let routes = dp.Datapath.routes and regs = dp.Datapath.regs in
  let rids = List.map (fun (r : Datapath.reg) -> r.Datapath.rid) regs in
  let units = dp.Datapath.massign.Massign.units in
  let map_nth l f =
    let k = Prng.int rng (List.length l) in
    List.mapi (fun i x -> if i = k then f x else x) l
  in
  match Prng.int rng 9 with
  | 0 when routes <> [] ->
    (* a result routed into another register *)
    { dp with routes = map_nth routes (fun rt -> { rt with Datapath.out_reg = pick rids }) }
  | 1 when routes <> [] ->
    (* an operand read from another register *)
    { dp with
      routes = map_nth routes (fun rt -> { rt with Datapath.l_reg = pick rids; r_reg = pick rids })
    }
  | 2 when dp.Datapath.reg_writers <> [] ->
    (* a writer missing from a register's list *)
    { dp with
      reg_writers = map_nth dp.Datapath.reg_writers (fun (rid, ws) ->
          (rid, match ws with _ :: rest -> rest | [] -> []))
    }
  | 3 when dp.Datapath.reg_writers <> [] ->
    (* a register with no writer list, or its list reordered *)
    let k = Prng.int rng (List.length dp.Datapath.reg_writers) in
    if Prng.int rng 2 = 0 then
      { dp with reg_writers = List.filteri (fun i _ -> i <> k) dp.Datapath.reg_writers }
    else
      { dp with
        reg_writers =
          List.mapi (fun i (rid, ws) -> if i = k then (rid, List.rev ws) else (rid, ws))
            dp.Datapath.reg_writers
      }
  | 4 when routes <> [] ->
    (* a route dropped, or one listed twice *)
    let rt = pick routes in
    if Prng.int rng 2 = 0 then { dp with routes = List.filter (fun r -> r != rt) routes }
    else { dp with routes = routes @ [ rt ] }
  | 5 when routes <> [] ->
    (* an operation bound to another unit, maybe one without its kind,
       or to no unit at all *)
    let rt = pick routes in
    let mid =
      if Prng.int rng 3 = 0 then "NO_SUCH_UNIT" else (pick units).Massign.mid
    in
    let massign =
      { dp.Datapath.massign with
        Massign.of_op = Dfg.Smap.add rt.Datapath.opid mid dp.Datapath.massign.Massign.of_op }
    in
    { dp with massign }
  | 6 when routes <> [] ->
    (* a route for an operation the design does not have *)
    { dp with routes = map_nth routes (fun rt -> { rt with Datapath.opid = "no_such_op" }) }
  | 7 when regs <> [] ->
    (* a register listed twice: its inputs load twice *)
    { dp with regs = regs @ [ pick regs ] }
  | _ -> dp

let corrupted_tables name rng dp =
  List.for_all
    (fun _ ->
      let once = corrupt rng dp in
      same_table name once && same_table name (corrupt rng once))
    (List.init 12 Fun.id)

let tables_match_on_shipped_designs () =
  let rng = Prng.create 36 in
  List.iter
    (fun (name, inst) ->
      ignore (same_eval name rng inst.B.dfg);
      List.iter
        (fun (fname, style) ->
          let dp = (run_flow style inst).Flow.datapath in
          let name = name ^ "/" ^ fname in
          ignore (same_table name dp);
          ignore (corrupted_tables name rng dp))
        flows)
    (Lazy.force shipped)

let prop_tables_match_on_random_designs =
  QCheck.Test.make ~name:"control table and evaluation match the scans on random designs"
    ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:(1 + Prng.int rng 16) ~inputs:(2 + Prng.int rng 4) in
      let name = Printf.sprintf "random seed %d" seed in
      same_eval name rng inst.B.dfg
      && List.for_all
           (fun (_, style) ->
             let dp = (run_flow style inst).Flow.datapath in
             same_table name dp && corrupted_tables name rng dp)
           flows)

(* "written twice" names the register and step the scan named, not
   just any. *)
let written_twice_names_the_register () =
  let inst = Option.get (B.by_tag "ex1") in
  let dp = (run_flow testable inst).Flow.datapath in
  let twice = { dp with routes = dp.Datapath.routes @ [ List.hd dp.Datapath.routes ] } in
  let message f = match outcome f with Error e -> e | Ok _ -> "accepted" in
  let want = message (fun () -> Oracles.control_build twice) in
  let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  check Alcotest.bool "the scan rejects a route listed twice" true
    (has_prefix "Invalid_argument(\"Control.build: register " want);
  check Alcotest.string "same register, same step" want
    (message (fun () -> Control.build twice))

(* --- shared BIST grading ---------------------------------------------- *)

(* [Bist_sim]'s per-register LFSR seed. *)
let seed_of_register ~width ~salt ~seed rid =
  let s = Hashtbl.hash (rid, salt, seed) land 0xFFFF in
  if s land ((1 lsl width) - 1) = 0 then 1 else s

(* One unit graded on its own through [Bist_sim.grade], as a report. *)
let grade_alone ~width ~pattern_count (dp : Datapath.t) (e : Ipath.embedding) =
  let u =
    List.find
      (fun (u : Massign.hw) -> String.equal u.Massign.mid e.Ipath.mid)
      dp.Datapath.massign.Massign.units
  in
  let circuit =
    match u.Massign.kinds with
    | [ k ] -> Library.of_kind k ~width
    | kinds -> Library.alu kinds ~width
  in
  let gen side rid = Lfsr.create ~width ~seed:(seed_of_register ~width ~salt:side ~seed:1 rid) in
  let gen_l = gen 0 e.Ipath.l_tpg and gen_r = gen 1 e.Ipath.r_tpg in
  let operands = Array.init pattern_count (fun _ -> (Lfsr.step gen_l, Lfsr.step gen_r)) in
  let faults = Fault.collapsed circuit in
  let signature, graded = Bist_sim.grade ~width circuit ~operands faults in
  let detected = List.length (List.filter (function Some (d, _) -> d | None -> false) graded) in
  let aliased =
    List.length (List.filter (function Some (d, a) -> d && a | None -> false) graded)
  in
  {
    Bist_sim.mid = e.Ipath.mid;
    patterns = pattern_count * List.length u.Massign.kinds;
    faults_total = List.length faults;
    faults_detected = detected;
    coverage =
      (if faults = [] then 1.0 else float_of_int detected /. float_of_int (List.length faults));
    signature;
    aliased;
    skipped = 0;
  }

let shared_grading_equals_grading_alone () =
  let width = 8 and pattern_count = 255 in
  let shared = ref 0 in
  List.iter
    (fun spec ->
      let inst = match B.by_tag spec with Some i -> i | None -> load (data_file spec) in
      List.iter
        (fun (fname, style) ->
          let r = run_flow style inst in
          let rep, t =
            Telemetry.collect (fun () ->
                Bist_sim.run ~width ~pattern_count r.Flow.datapath r.Flow.bist)
          in
          shared := !shared + Telemetry.counter t "bist_sim.units_shared";
          let alone =
            List.map (grade_alone ~width ~pattern_count r.Flow.datapath)
              r.Flow.bist.Allocator.embeddings
          in
          check Alcotest.bool
            (Printf.sprintf "%s/%s: shared report = every unit graded alone" spec fname)
            true (rep.Bist_sim.units = alone))
        flows)
    [ "Tseng2"; "ewf"; "ewf.dfg"; "fir32.dfg" ];
  check Alcotest.bool "some unit reused another's grade" true (!shared > 0)

(* --- rule-family spans ----------------------------------------------- *)

let check_families_are_spans () =
  let inst = Option.get (B.by_tag "ex1") in
  let r = run_flow testable inst in
  let ctx =
    Check.ctx_of_flow ~vectors:2 ~design:"ex1" ~width:8 inst.B.dfg inst.B.massign
      ~policy:inst.B.policy r
  in
  let spans rules =
    let _, t = Telemetry.collect (fun () -> Check.run ?rules ctx) in
    Array.of_list (Telemetry.spans t)
  in
  let roots spans =
    List.filter_map
      (fun (s : Telemetry.span) -> if s.Telemetry.depth = 0 then Some s.Telemetry.name else None)
      (Array.to_list spans)
  in
  (* the first run forces the ctx's lazy RTL *)
  let all = spans None in
  check (Alcotest.list Alcotest.string) "one span per family, in rule order"
    [ "check.alloc"; "check.datapath"; "check.rtl"; "check.equiv"; "check.absint" ]
    (List.filter (fun n -> String.starts_with ~prefix:"check." n) (roots all));
  check (Alcotest.list Alcotest.string) "the ABS family alone" [ "check.absint" ]
    (roots (spans (Some Check.absint_family)));
  (* DP002 forces the RTL first, so its emit is timed once, in its own
     span under check.datapath. *)
  check (Alcotest.list Alcotest.string) "one rtl.emit span, under check.datapath"
    [ "check.datapath" ]
    (Array.to_list all
    |> List.filter_map (fun (s : Telemetry.span) ->
           if s.Telemetry.name <> "rtl.emit" then None
           else Option.map (fun p -> all.(p).Telemetry.name) s.Telemetry.parent))

let suite =
  [
    case "tables match the scans on the shipped designs" tables_match_on_shipped_designs;
    QCheck_alcotest.to_alcotest prop_tables_match_on_random_designs;
    case "a register written twice is named as the scan names it"
      written_twice_names_the_register;
    case "shared grading equals grading each unit alone" shared_grading_equals_grading_alone;
    case "check opens one span per rule family" check_families_are_spans;
  ]
