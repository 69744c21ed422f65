(* The abstract-interpretation engine: transfer functions are proven
   sound against Op.eval by exhaustive enumeration (every interval pair
   at widths 1-3, a targeted set at width 4), the DFG and control
   solvers are exercised on shipped kernels, each ABS rule is driven by
   a corruption that only it should catch, and the CLI surface
   (analyze, --narrow, --list-rules, fault injection) is smoke-tested
   through the real binary. *)

module Op = Bistpath_dfg.Op
module B = Bistpath_benchmarks.Benchmarks
module Policy = Bistpath_dfg.Policy
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Module_assign = Bistpath_core.Module_assign
module Datapath = Bistpath_datapath.Datapath
module Control = Bistpath_datapath.Control
module Diagnostic = Bistpath_resilience.Diagnostic
module Json = Bistpath_util.Json
module Check = Bistpath_check.Check
module Interval = Bistpath_absint.Interval
module Absint = Bistpath_absint.Absint

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- transfer soundness: exhaustive against Op.eval ----------------- *)

let kind_name = function
  | Op.Add -> "+" | Op.Sub -> "-" | Op.Mul -> "*" | Op.Div -> "/"
  | Op.And -> "&" | Op.Or -> "|" | Op.Xor -> "^" | Op.Less -> "<"

(* Did the mathematical result leave [0, 2^width-1] before reduction? *)
let wraps kind ~width x y =
  let m = (1 lsl width) - 1 in
  match kind with
  | Op.Add -> x + y > m
  | Op.Sub -> x - y < 0
  | Op.Mul -> x * y > m
  | Op.Div | Op.And | Op.Or | Op.Xor | Op.Less -> false

let members (lo, hi) = List.init (hi - lo + 1) (fun i -> lo + i)

let check_value ~ctx (v : Interval.t) r =
  if r < v.Interval.lo || r > v.Interval.hi then
    Alcotest.failf "%s: concrete result %d escapes abstract %s" ctx r
      (Interval.to_string v);
  if r land v.Interval.zeros <> 0 then
    Alcotest.failf "%s: result %d sets a known-zero bit (zeros=%#x)" ctx r
      v.Interval.zeros;
  if r land v.Interval.ones <> v.Interval.ones then
    Alcotest.failf "%s: result %d clears a known-one bit (ones=%#x)" ctx r
      v.Interval.ones

let check_tri ~ctx ~what tri ~any ~all =
  match tri with
  | Interval.No ->
      if any then Alcotest.failf "%s: %s verdict No but some pair hits it" ctx what
  | Interval.Must ->
      if not all then Alcotest.failf "%s: %s verdict Must but some pair avoids it" ctx what
  | Interval.May -> ()

let check_pair kind ~width (alo, ahi) (blo, bhi) =
  let ia = Interval.make ~width alo ahi and ib = Interval.make ~width blo bhi in
  let t = Interval.transfer kind ~width ia ib in
  let ctx =
    Printf.sprintf "w%d [%d,%d] %s [%d,%d]" width alo ahi (kind_name kind) blo bhi
  in
  let any_w = ref false and all_w = ref true in
  let any_z = ref false and all_z = ref true in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check_value ~ctx t.Interval.value (Op.eval kind ~width x y);
          let w = wraps kind ~width x y in
          any_w := !any_w || w;
          all_w := !all_w && w;
          let z = kind = Op.Div && y = 0 in
          any_z := !any_z || z;
          all_z := !all_z && z)
        (members (blo, bhi)))
    (members (alo, ahi));
  check_tri ~ctx ~what:"overflow" t.Interval.overflow ~any:!any_w ~all:!all_w;
  check_tri ~ctx ~what:"div-by-zero" t.Interval.div_by_zero ~any:!any_z ~all:!all_z

let check_same kind ~width (lo, hi) =
  let ia = Interval.make ~width lo hi in
  let t = Interval.transfer_same kind ~width ia in
  let ctx = Printf.sprintf "w%d same [%d,%d] %s" width lo hi (kind_name kind) in
  let any_w = ref false and all_w = ref true in
  let any_z = ref false and all_z = ref true in
  List.iter
    (fun x ->
      check_value ~ctx t.Interval.value (Op.eval kind ~width x x);
      let w = wraps kind ~width x x in
      any_w := !any_w || w;
      all_w := !all_w && w;
      let z = kind = Op.Div && x = 0 in
      any_z := !any_z || z;
      all_z := !all_z && z)
    (members (lo, hi));
  check_tri ~ctx ~what:"overflow" t.Interval.overflow ~any:!any_w ~all:!all_w;
  check_tri ~ctx ~what:"div-by-zero" t.Interval.div_by_zero ~any:!any_z ~all:!all_z

let all_intervals width =
  let m = (1 lsl width) - 1 in
  List.concat
    (List.init (m + 1) (fun lo -> List.init (m + 1 - lo) (fun d -> (lo, lo + d))))

let soundness_exhaustive () =
  List.iter
    (fun width ->
      let ivs = all_intervals width in
      List.iter
        (fun kind ->
          List.iter
            (fun ia ->
              check_same kind ~width ia;
              List.iter (fun ib -> check_pair kind ~width ia ib) ivs)
            ivs)
        Op.all_kinds)
    [ 1; 2; 3 ]

let soundness_width4 () =
  let width = 4 in
  let m = (1 lsl width) - 1 in
  let ivs =
    [ (0, 0); (1, 1); (7, 7); (8, 8); (m, m); (0, m); (1, m); (0, 1);
      (0, 7); (8, m); (3, 11); (2, 5) ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun ia ->
          check_same kind ~width ia;
          List.iter (fun ib -> check_pair kind ~width ia ib) ivs)
        ivs)
    Op.all_kinds

(* --- satellite: Op.eval corner cases -------------------------------- *)

let eval_corners () =
  check Alcotest.int "div by zero is all-ones (w4)" 15 (Op.eval Op.Div ~width:4 5 0);
  check Alcotest.int "div by zero is all-ones (w8)" 255 (Op.eval Op.Div ~width:8 0 0);
  check Alcotest.int "div by zero is all-ones (w1)" 1 (Op.eval Op.Div ~width:1 1 0);
  check Alcotest.int "less true at width 1" 1 (Op.eval Op.Less ~width:1 0 1);
  check Alcotest.int "less false at width 1" 0 (Op.eval Op.Less ~width:1 1 0);
  check Alcotest.int "less irreflexive at width 1" 0 (Op.eval Op.Less ~width:1 1 1);
  check Alcotest.int "add wraps at 2^w" 0 (Op.eval Op.Add ~width:4 15 1);
  check Alcotest.int "sub wraps below zero" 15 (Op.eval Op.Sub ~width:4 0 1);
  check Alcotest.int "mul wraps mod 2^w" 0 (Op.eval Op.Mul ~width:4 8 2);
  check Alcotest.int "add saturating edge stays" 15 (Op.eval Op.Add ~width:4 7 8)

(* --- solver behaviour on parsed kernels ----------------------------- *)

let minmax4_text =
  "dfg minmax4\n\
   input a b c d\n\
   output cnt all\n\
   op <1 = a < b -> s1 @ 1\n\
   op <2 = c < d -> s2 @ 2\n\
   op |1 = s1 | s2 -> any @ 3\n\
   op &2 = s1 & s2 -> all @ 3\n\
   op ^1 = any ^ all -> one @ 4\n\
   op +1 = any + one -> cnt @ 5\n"

let range res name =
  match List.assoc_opt name res.Absint.env with
  | Some v -> (v.Interval.lo, v.Interval.hi)
  | None -> Alcotest.failf "solve_dfg: no value for %s" name

let solve_dfg_ranges () =
  let dfg = Test_dfg.of_text minmax4_text in
  let res = Absint.solve_dfg ~width:8 ~policy:Policy.default dfg in
  let pair = Alcotest.(pair int int) in
  check pair "s1 is a comparison bit" (0, 1) (range res "s1");
  check pair "any is a single bit" (0, 1) (range res "any");
  check pair "all is a single bit" (0, 1) (range res "all");
  check pair "one is a single bit" (0, 1) (range res "one");
  check pair "cnt counts at most two bits" (0, 2) (range res "cnt");
  check pair "inputs stay full-range" (0, 255) (range res "a");
  check Alcotest.bool "straight-line code needs no widening" false res.Absint.widened

let solve_dfg_assumes () =
  let dfg = Test_dfg.of_text "dfg t\ninput a b\noutput s\nop +1 = a + b -> s @ 1\n" in
  let res =
    Absint.solve_dfg ~assumes:[ ("a", (10, 20)); ("b", (1, 2)) ] ~width:8
      ~policy:Policy.default dfg
  in
  check Alcotest.(pair int int) "assumed ranges propagate" (11, 22) (range res "s");
  let f = List.hd res.Absint.op_facts in
  check Alcotest.bool "no wrap possible under the assumption" true
    (f.Absint.overflow = Interval.No)

let solve_dfg_widening () =
  (* acc feeds back into itself through the carried pair: the chain
     grows by one each pass until widening jumps it to the top. *)
  let dfg = Test_dfg.of_text "dfg loop\ninput acc a\noutput acc2\nop +1 = acc + a -> acc2 @ 1\n" in
  let policy = Policy.with_carried [ ("acc2", "acc") ] in
  let res =
    Absint.solve_dfg ~assumes:[ ("acc", (0, 0)); ("a", (1, 1)) ] ~width:8 ~policy dfg
  in
  check Alcotest.bool "carried chain triggers widening" true res.Absint.widened;
  check Alcotest.bool "fixpoint reached quickly" true (res.Absint.iterations < 64);
  let lo, hi = range res "acc2" in
  check Alcotest.bool "post-widening range is sound" true (lo <= 1 && hi = 255)

let minmax4_flow () =
  let dfg = Test_dfg.of_text minmax4_text in
  let massign = Module_assign.single_function dfg in
  let r =
    Flow.run ~style:(Flow.Testable Testable_alloc.default_options) dfg massign
      ~policy:Policy.default
  in
  (dfg, massign, r)

let solve_control_clean () =
  let _, _, r = minmax4_flow () in
  let control = Control.build r.Flow.datapath in
  let res = Absint.solve_control ~width:8 r.Flow.datapath control in
  check Alcotest.(list int) "no unreachable steps" [] res.Absint.unreachable;
  check Alcotest.bool "no uninitialized reads" true (res.Absint.uninit_reads = []);
  check Alcotest.bool "no dead port legs" true (res.Absint.dead_port_legs = []);
  List.iter
    (fun (rf : Absint.reg_facts) ->
      check Alcotest.(list int) (rf.Absint.rid ^ " has no dead writer legs") []
        rf.Absint.dead_writers)
    res.Absint.regs

let narrow_plan_minmax4 () =
  let _, _, r = minmax4_flow () in
  let control = Control.build r.Flow.datapath in
  let plan = Absint.narrow_plan ~width:8 r.Flow.datapath control in
  check Alcotest.bool "plan saves bits on minmax4" true (plan.Absint.saved_bits > 0);
  check Alcotest.bool "plan is not empty" true
    (plan.Absint.regw <> [] || plan.Absint.unitw <> []);
  check Alcotest.bool "savings stay below the total" true
    (plan.Absint.saved_bits < plan.Absint.total_bits);
  List.iter
    (fun (c : Absint.component) ->
      if c.Absint.narrow_bits > c.Absint.full_bits then
        Alcotest.failf "%s widened to %d bits" c.Absint.name c.Absint.narrow_bits)
    plan.Absint.components;
  List.iter
    (fun (u, w) ->
      (* Less units (named "<n" by single-function assignment) must
         never drop below their 2-bit floor; boolean logic units may
         narrow all the way to 1 bit *)
      if String.length u > 0 && u.[0] = '<' && w < 2 then
        Alcotest.failf "Less unit %s narrowed below 2 bits" u)
    plan.Absint.unitw

(* --- one corruption per ABS rule ------------------------------------ *)

let ctx_of_text ?(assumes = []) name text =
  let dfg = Test_dfg.of_text text in
  let massign = Module_assign.single_function dfg in
  let r =
    Flow.run ~style:(Flow.Testable Testable_alloc.default_options) dfg massign
      ~policy:Policy.default
  in
  Check.ctx_of_flow ~assumes ~design:name ~width:8 dfg massign
    ~policy:Policy.default r

let run_abs ctx = Check.run ~rules:Check.absint_family ctx

let rules_of rep =
  List.sort_uniq compare (List.map (fun f -> f.Check.rule) rep.Check.findings)

let errors_of rep =
  List.sort_uniq compare
    (List.filter_map
       (fun f ->
         if f.Check.severity = Diagnostic.Error then Some f.Check.rule else None)
       rep.Check.findings)

let finding rep rule =
  match List.find_opt (fun f -> f.Check.rule = rule) rep.Check.findings with
  | Some f -> f
  | None -> Alcotest.failf "expected a %s finding" rule

let abs001_wrap () =
  let text = "dfg t\ninput a b\noutput s\nop +1 = a + b -> s @ 1\n" in
  (* certain wrap: 200+100 > 255 for every admitted pair *)
  let rep =
    run_abs (ctx_of_text ~assumes:[ ("a", (200, 255)); ("b", (100, 255)) ] "t" text)
  in
  check Alcotest.(list string) "ABS001 is the only error" [ "ABS001" ] (errors_of rep);
  let f = finding rep "ABS001" in
  check Alcotest.bool "witness carries the interval" true
    (contains f.Check.detail "every execution wraps");
  (* possible-but-not-certain wrap under an assumption: warning, not error *)
  let rep =
    run_abs (ctx_of_text ~assumes:[ ("a", (200, 255)) ] "t" text)
  in
  check Alcotest.(list string) "may-wrap is not an error" [] (errors_of rep);
  check Alcotest.bool "may-wrap under assumption still warns" true
    (List.mem "ABS001" (rules_of rep));
  (* no assumption: full-range feasibility stays silent *)
  let rep = run_abs (ctx_of_text "t" text) in
  check Alcotest.(list string) "unassumed full-range add is silent" [] (rules_of rep)

let abs002_div_by_zero () =
  let text = "dfg div0\ninput a b\noutput q\nop ^1 = a ^ a -> z @ 1\nop /1 = b / z -> q @ 2\n" in
  let rep = run_abs (ctx_of_text "div0" text) in
  check Alcotest.(list string) "ABS002 is the only error" [ "ABS002" ] (errors_of rep);
  let f = finding rep "ABS002" in
  check Alcotest.bool "witness names the constant divisor" true
    (contains f.Check.detail "z" && contains f.Check.detail "{0}");
  check Alcotest.bool "witness states the forced result" true
    (contains f.Check.detail "255");
  (* the zero divisor net itself is not double-reported as ABS005 *)
  List.iter
    (fun f ->
      if f.Check.rule = "ABS005" && f.Check.subject = "z" then
        Alcotest.fail "divisor net z double-reported as ABS005")
    rep.Check.findings

let abs005_constant_net () =
  let text = "dfg c\ninput a b\noutput s\nop ^1 = a ^ a -> z @ 1\nop +1 = z + b -> s @ 2\n" in
  let rep = run_abs (ctx_of_text "c" text) in
  check Alcotest.(list string) "constant net is a warning, not an error" []
    (errors_of rep);
  let f = finding rep "ABS005" in
  check Alcotest.bool "ABS005 names the constant" true
    (contains f.Check.detail "{0}")

let abs003_dead_writer () =
  let ctx = ctx_of_text "minmax4" minmax4_text in
  let dp = ctx.Check.datapath in
  let rid =
    match List.find_opt (fun (_, ws) -> ws <> []) dp.Datapath.reg_writers with
    | Some (r, _) -> r
    | None -> Alcotest.fail "no written register"
  in
  let dp' =
    {
      dp with
      Datapath.reg_writers =
        List.map
          (fun (r, ws) ->
            if r = rid then (r, ws @ [ Datapath.From_unit "phantom" ]) else (r, ws))
          dp.Datapath.reg_writers;
    }
  in
  let rep = run_abs { ctx with Check.datapath = dp' } in
  check Alcotest.bool "phantom writer leg reported dead" true
    (List.mem "ABS003" (rules_of rep));
  let f = finding rep "ABS003" in
  check Alcotest.string "finding is on the corrupted register" rid f.Check.subject;
  check Alcotest.bool "detail names the phantom source" true
    (contains f.Check.detail "phantom")

let abs004_unreachable_step () =
  let ctx = ctx_of_text "minmax4" minmax4_text in
  let control =
    match ctx.Check.control with
    | Some c -> c
    | None -> Alcotest.fail "flow ctx carries no control table"
  in
  let last = List.nth control.Control.steps (List.length control.Control.steps - 1) in
  let ghost = { last with Control.index = last.Control.index + 5 } in
  let corrupted = Some { Control.steps = control.Control.steps @ [ ghost ] } in
  let rep = run_abs { ctx with Check.control = corrupted } in
  check Alcotest.bool "ghost step reported unreachable" true
    (List.mem "ABS004" (errors_of rep));
  let f = finding rep "ABS004" in
  check Alcotest.bool "detail names the ghost index" true
    (contains f.Check.detail (string_of_int ghost.Control.index))

let abs006_uninit_read () =
  let ctx = ctx_of_text "minmax4" minmax4_text in
  let control =
    match ctx.Check.control with
    | Some c -> c
    | None -> Alcotest.fail "flow ctx carries no control table"
  in
  (* drop the load phase: every input register is now read while still
     holding its reset value *)
  let corrupted =
    Some
      {
        Control.steps =
          List.filter (fun s -> s.Control.index <> 0) control.Control.steps;
      }
  in
  let rep = run_abs { ctx with Check.control = corrupted } in
  check Alcotest.bool "read-before-write reported" true
    (List.mem "ABS006" (errors_of rep))

(* The ABS rules read the control table of the ctx they are run on:
   run after run, a repaired table clears ABS006 and a missing one
   silences the controller rules, so no verdict outlives the record
   update that changed it. *)
let abs_follow_updated_control () =
  let ctx = ctx_of_text "minmax4" minmax4_text in
  let control = Option.get ctx.Check.control in
  let unloaded =
    { ctx with
      Check.control =
        Some
          { Control.steps =
              List.filter (fun s -> s.Control.index <> 0) control.Control.steps } }
  in
  check Alcotest.bool "unloaded table reads before writing" true
    (List.mem "ABS006" (errors_of (run_abs unloaded)));
  check Alcotest.(list string) "repaired table is clean" []
    (rules_of (run_abs { unloaded with Check.control = Some control }));
  let rep, _, control_ranges = Check.analyze { unloaded with Check.control = None } in
  check Alcotest.(list string) "no table, no controller verdicts" [] (rules_of rep);
  check Alcotest.bool "no table, no controller analysis" true (control_ranges = None)

let clean_shipped_kernels () =
  List.iter
    (fun f ->
      let inst = Test_regalloc_trace.load ("data/" ^ f) in
      let dfg = inst.B.dfg and massign = inst.B.massign in
      let r =
        Flow.run ~style:(Flow.Testable Testable_alloc.default_options) dfg massign
          ~policy:Policy.default
      in
      let ctx =
        Check.ctx_of_flow ~design:f ~width:8 dfg massign ~policy:Policy.default r
      in
      let rep = run_abs ctx in
      check Alcotest.(list string) (f ^ " has no ABS findings") [] (rules_of rep))
    [ "cmp4.dfg"; "clip8.dfg"; "minmax4.dfg" ]

(* --- the CLI surface, through the real binary ----------------------- *)

let synth_exe =
  Filename.concat Filename.parent_dir_name (Filename.concat "bin" "synth.exe")

let run_synth_out ?env args =
  let out = Filename.temp_file "absint" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv = Array.of_list (synth_exe :: args) in
  let pid =
    match env with
    | None -> Unix.create_process synth_exe argv Unix.stdin fd null
    | Some extra ->
        let base = Unix.environment () in
        Unix.create_process_env synth_exe argv
          (Array.append base (Array.of_list extra))
          Unix.stdin fd null
  in
  Unix.close fd;
  Unix.close null;
  let rc =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
  in
  let s = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (rc, s)

let data_file f =
  let up = Filename.concat Filename.parent_dir_name "data" in
  if Sys.file_exists up then Filename.concat up f else Filename.concat "data" f

let fixture f = Filename.concat "fixtures" f

let json_of s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad json: %s" e

let member name = function
  | Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let cli_analyze_json () =
  let rc, out =
    run_synth_out
      [ "analyze"; data_file "minmax4.dfg"; "--flow"; "testable"; "--format"; "json" ]
  in
  check Alcotest.int "clean kernel analyzes with exit 0" 0 rc;
  let j = json_of out in
  (match member "narrow" j with
  | Some (Json.Obj _ as n) -> (
      match member "saved_bits" n with
      | Some (Json.Num k) ->
          check Alcotest.bool "narrowing saves bits on minmax4" true (k > 0.)
      | _ -> Alcotest.fail "narrow.saved_bits missing")
  | _ -> Alcotest.fail "narrow plan missing from json");
  match member "values" j with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "value ranges missing from json"

let cli_analyze_sarif () =
  let rc, out =
    run_synth_out
      [ "analyze"; fixture "div0.dfg"; "--flow"; "testable"; "--format"; "sarif" ]
  in
  check Alcotest.int "div0 fixture exits with findings" 2 rc;
  let j = json_of out in
  (match member "version" j with
  | Some (Json.Str "2.1.0") -> ()
  | _ -> Alcotest.fail "sarif version is not 2.1.0");
  check Alcotest.bool "sarif names the division rule" true (contains out "ABS002")

let cli_analyze_bad_assume () =
  let rc, _ =
    run_synth_out
      [ "analyze"; data_file "minmax4.dfg"; "--assume"; "a=9:2" ]
  in
  check Alcotest.int "inverted assume range is invalid input" 4 rc;
  let rc, _ =
    run_synth_out
      [ "analyze"; data_file "minmax4.dfg"; "--assume"; "nosuch=0:1" ]
  in
  check Alcotest.int "unknown assume variable is invalid input" 4 rc

let cli_rtl_narrow () =
  let rc, _ =
    run_synth_out
      [ "rtl"; data_file "minmax4.dfg"; "--flow"; "testable"; "--narrow"; "--verify" ]
  in
  check Alcotest.int "--narrow --verify round-trips" 0 rc;
  let rc, _ =
    run_synth_out [ "rtl"; data_file "minmax4.dfg"; "--narrow"; "--bist" ]
  in
  check Alcotest.int "--narrow rejects --bist" 4 rc

let cli_list_rules () =
  let rc, out = run_synth_out [ "check"; "--list-rules" ] in
  check Alcotest.int "--list-rules runs without a DFG" 0 rc;
  List.iter
    (fun r ->
      check Alcotest.bool (r ^ " listed") true (contains out r))
    [ "ABS001"; "ABS002"; "ABS003"; "ABS004"; "ABS005"; "ABS006" ];
  let rc, out = run_synth_out [ "check"; "--list-rules"; "--format"; "json" ] in
  check Alcotest.int "json listing succeeds" 0 rc;
  match json_of out with
  | Json.Arr (_ :: _) -> ()
  | _ -> Alcotest.fail "json rule listing is not a non-empty array"

let cli_suppress_unknown () =
  let rc, _ = run_synth_out [ "check"; "ex1"; "--suppress"; "NOPE999" ] in
  check Alcotest.int "unknown suppression id is invalid input" 4 rc

let cli_injected_degrade () =
  let rc, _ =
    run_synth_out
      ~env:[ "BISTPATH_INJECT=absint.fixpoint" ]
      [ "analyze"; data_file "minmax4.dfg" ]
  in
  check Alcotest.int "injected solver fault degrades to exit 3" 3 rc;
  (* a fact that raises raises for every rule that reads it *)
  let rc, out =
    run_synth_out
      ~env:[ "BISTPATH_INJECT=absint.fixpoint" ]
      [ "check"; "ex1"; "--flow"; "testable" ]
  in
  check Alcotest.int "injected solver fault fails the check" 2 rc;
  let crashed =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | "[CHK000]" :: _ :: subject :: _ -> Some subject
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  check Alcotest.(list string) "one CHK000 per ABS rule"
    [ "ABS001:"; "ABS002:"; "ABS003:"; "ABS004:"; "ABS005:"; "ABS006:" ]
    crashed

let suite =
  [
    case "transfer functions sound (exhaustive, widths 1-3)" soundness_exhaustive;
    case "transfer functions sound (targeted, width 4)" soundness_width4;
    case "Op.eval corner cases" eval_corners;
    case "solve_dfg infers bit-level ranges" solve_dfg_ranges;
    case "solve_dfg honors assumptions" solve_dfg_assumes;
    case "solve_dfg widens carried chains" solve_dfg_widening;
    case "solve_control finds nothing on a clean kernel" solve_control_clean;
    case "narrow_plan shrinks minmax4" narrow_plan_minmax4;
    case "ABS001 catches a certain wrap" abs001_wrap;
    case "ABS002 catches a certain division by zero" abs002_div_by_zero;
    case "ABS003 catches a dead writer leg" abs003_dead_writer;
    case "ABS004 catches an unreachable step" abs004_unreachable_step;
    case "ABS005 reports a provably constant net" abs005_constant_net;
    case "ABS006 catches a read before first write" abs006_uninit_read;
    case "shipped kernels are ABS-clean" clean_shipped_kernels;
    case "cli: analyze --format json" cli_analyze_json;
    case "cli: analyze --format sarif on div0" cli_analyze_sarif;
    case "cli: analyze rejects bad --assume" cli_analyze_bad_assume;
    case "cli: rtl --narrow verifies and rejects --bist" cli_rtl_narrow;
    case "cli: check --list-rules" cli_list_rules;
    case "cli: check rejects unknown --suppress" cli_suppress_unknown;
    case "cli: injected solver fault degrades analyze" cli_injected_degrade;
    case "ABS verdicts follow a record-updated control" abs_follow_updated_control;
  ]
