(* Tests for the behavioural evaluator, controller synthesis, and the
   cycle-accurate data-path interpreter — the functional-equivalence
   backbone of the repository. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Eval = Bistpath_dfg.Eval
module Policy = Bistpath_dfg.Policy
module B = Bistpath_benchmarks.Benchmarks
module Control = Bistpath_datapath.Control
module Interp = Bistpath_datapath.Interp
module Flow = Bistpath_core.Flow
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let testable = Flow.Testable Bistpath_core.Testable_alloc.default_options

let eval_known_values () =
  let inst = B.ex1 () in
  (* d = a+b, c = a*b, f = c+d, h = e*g (width 8) *)
  let outs =
    Eval.run inst.B.dfg ~width:8 ~inputs:[ ("a", 3); ("b", 5); ("e", 7); ("g", 11) ]
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "outputs"
    [ ("f", 23); ("h", 77) ]
    outs

let eval_wraps_at_width () =
  let inst = B.ex1 () in
  let outs =
    Eval.run inst.B.dfg ~width:4 ~inputs:[ ("a", 9); ("b", 9); ("e", 15); ("g", 15) ]
  in
  (* width 4: d = 18 mod 16 = 2; c = 81 mod 16 = 1; f = 3; h = 225 mod 16 = 1 *)
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "wrapped"
    [ ("f", 3); ("h", 1) ]
    outs

let eval_missing_input_rejected () =
  let inst = B.ex1 () in
  match Eval.run inst.B.dfg ~width:8 ~inputs:[ ("a", 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing inputs accepted"

let op_eval_division_by_zero () =
  check Alcotest.int "x/0 saturates" 255 (Op.eval Op.Div ~width:8 42 0);
  check Alcotest.int "less true" 1 (Op.eval Op.Less ~width:8 3 9);
  check Alcotest.int "less false" 0 (Op.eval Op.Less ~width:8 9 3)

let control_table_ex1 () =
  let inst = B.ex1 () in
  let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let c = Control.build r.Flow.datapath in
  check Alcotest.int "steps 0..3" 4 (List.length c.Control.steps);
  (* step 0 loads a and b (and nothing computes) *)
  let s0 = List.hd c.Control.steps in
  check Alcotest.int "no ops in load phase" 0 (List.length s0.Control.ops);
  check Alcotest.int "two input loads at step 0" 2 (List.length s0.Control.writes);
  (* step 1 runs both units *)
  let s1 = List.nth c.Control.steps 1 in
  check Alcotest.int "two ops in step 1" 2 (List.length s1.Control.ops);
  (* every register write appears exactly once per variable *)
  let all_written =
    List.concat_map (fun s -> List.map (fun w -> w.Control.variable) s.Control.writes) c.Control.steps
  in
  check Alcotest.bool "no variable latched twice" true
    (List.sort_uniq compare all_written = List.sort compare all_written)

let control_enables () =
  let inst = B.ex1 () in
  let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let c = Control.build r.Flow.datapath in
  (* R3 = {e}: loaded once, at the end of step 2 (e born at 2) *)
  check (Alcotest.list Alcotest.int) "R3 enabled once" [ 2 ] (List.map fst (Control.write_schedule c "R3"))

let interp_matches_eval_paper_benchmarks () =
  let rng = Prng.create 2024 in
  List.iter
    (fun tag ->
      let inst = Option.get (B.by_tag tag) in
      List.iter
        (fun style ->
          let r = Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy in
          for _ = 1 to 10 do
            let inputs =
              List.map (fun v -> (v, Prng.int rng 256)) inst.B.dfg.Dfg.inputs
            in
            if not (Interp.equivalent_to_dfg r.Flow.datapath ~width:8 ~inputs) then
              Alcotest.failf "%s: datapath disagrees with DFG" tag
          done)
        [ Flow.Traditional; testable ])
    B.all_tags

let interp_trace_shows_latches () =
  let inst = B.ex1 () in
  let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let _, trace =
    Interp.run ~trace:true r.Flow.datapath ~width:8
      ~inputs:[ ("a", 3); ("b", 5); ("e", 7); ("g", 11) ]
  in
  check Alcotest.int "one entry per step" 4 (List.length trace);
  (* after step 1, some register holds d = 8 and some holds c = 15 *)
  let after1 = (List.nth trace 1).Interp.register_file in
  check Alcotest.bool "d latched" true (List.exists (fun (_, x) -> x = 8) after1);
  check Alcotest.bool "c latched" true (List.exists (fun (_, x) -> x = 15) after1)

let interp_missing_input () =
  let inst = B.ex1 () in
  let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  match Interp.run r.Flow.datapath ~width:8 ~inputs:[ ("a", 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing input accepted"

let carried_loop_iterates () =
  (* Run the Paulin datapath: outputs must match the behavioural DFG even
     though x1/y1/u1 overwrite the x/y/u registers mid-run. *)
  let inst = B.paulin () in
  let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let inputs = [ ("x", 2); ("y", 3); ("u", 50); ("dx", 4); ("a", 100); ("c3", 3) ] in
  let got, _ = Interp.run r.Flow.datapath ~width:8 ~inputs in
  let expected = Eval.run inst.B.dfg ~width:8 ~inputs in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "loop body" expected got

let loop_iterations_thread_state () =
  (* Iterating the Paulin loop body on the data path must equal manually
     threading x1/y1/u1 back into x/y/u at the behavioural level. *)
  let inst = B.paulin () in
  let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let inputs = [ ("x", 1); ("y", 2); ("u", 30); ("dx", 3); ("a", 200); ("c3", 3) ] in
  let iterations = 4 in
  let got =
    Interp.run_iterations r.Flow.datapath ~policy:inst.B.policy ~width:8 ~iterations
      ~inputs
  in
  let rec expected k inputs acc =
    let outs = Eval.run inst.B.dfg ~width:8 ~inputs in
    let acc = outs :: acc in
    if k = iterations then List.rev acc
    else
      let next =
        List.map
          (fun (v, x) ->
            match List.assoc_opt v [ ("x", "x1"); ("y", "y1"); ("u", "u1") ] with
            | Some w -> (v, List.assoc w outs)
            | None -> (v, x))
          inputs
      in
      expected (k + 1) next acc
  in
  check
    (Alcotest.list (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)))
    "4 iterations" (expected 1 inputs []) got;
  (* iterations must actually evolve the state *)
  check Alcotest.bool "state changes between iterations" true
    (List.nth got 0 <> List.nth got 1);
  match Interp.run_iterations r.Flow.datapath ~policy:inst.B.policy ~width:8 ~iterations:0 ~inputs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 iterations accepted"

let carry_timing_violation_rejected () =
  (* x used after the step where its carried replacement is produced *)
  let ops =
    [
      { Op.id = "+1"; kind = Op.Add; left = "x"; right = "dx"; out = "x1" };
      { Op.id = "+2"; kind = Op.Add; left = "x"; right = "x1"; out = "y" };
    ]
  in
  let dfg =
    Dfg.make ~name:"bad" ~ops ~inputs:[ "x"; "dx" ] ~outputs:[ "y" ]
      ~schedule:[ ("+1", 1); ("+2", 2) ]
  in
  match Policy.validate dfg (Policy.with_carried [ ("x1", "x") ]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "carry overwriting a live input accepted"

let prop_interp_equivalence_widths =
  QCheck.Test.make ~name:"datapath equivalence holds at widths 4 and 16" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:8 ~inputs:3 in
      List.for_all
        (fun width ->
          let irng = Prng.create (seed + width) in
          let inputs =
            List.map (fun v -> (v, Prng.int irng (1 lsl width))) inst.B.dfg.Dfg.inputs
          in
          let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
          Interp.equivalent_to_dfg r.Flow.datapath ~width ~inputs)
        [ 4; 16 ])

let prop_interp_equivalence_random =
  QCheck.Test.make ~name:"datapath equivalent to DFG on random instances and inputs"
    ~count:50
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (seed, input_seed) ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let irng = Prng.create input_seed in
      let inputs =
        List.map (fun v -> (v, Prng.int irng 256)) inst.B.dfg.Dfg.inputs
      in
      List.for_all
        (fun style ->
          let r = Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy in
          Interp.equivalent_to_dfg r.Flow.datapath ~width:8 ~inputs)
        [ Flow.Traditional; testable ])

let prop_control_single_write =
  QCheck.Test.make ~name:"control: at most one write per register per step" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
      let c = Control.build r.Flow.datapath in
      List.for_all
        (fun (s : Control.step) ->
          let rids = List.map (fun w -> w.Control.rid) s.Control.writes in
          List.sort_uniq compare rids = List.sort compare rids)
        c.Control.steps)

let prop_control_ops_cover_schedule =
  QCheck.Test.make ~name:"control: ops appear exactly at their scheduled step" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let r = Flow.run ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy in
      let c = Control.build r.Flow.datapath in
      List.for_all
        (fun (s : Control.step) ->
          List.for_all
            (fun (o : Control.unit_op) -> Dfg.cstep inst.B.dfg o.Control.opid = s.Control.index)
            s.Control.ops)
        c.Control.steps)

(* [Interp.run dp ~width] stages the run once; the closure must answer
   every input set, a missing input included, as a fresh full
   application does. *)
let prop_staged_run_reusable =
  QCheck.Test.make ~name:"interp: one staged run equals fresh runs over 50 inputs" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:12 ~inputs:4 in
      let dfg = inst.B.dfg in
      let irng = Prng.create (seed + 1) in
      let outcome f = match f () with r -> Ok r | exception Invalid_argument m -> Error m in
      List.for_all
        (fun style ->
          let dp = (Flow.run ~style dfg inst.B.massign ~policy:inst.B.policy).Flow.datapath in
          let staged = Interp.run ~trace:true dp ~width:8 in
          let agrees inputs =
            outcome (fun () -> staged ~inputs)
            = outcome (fun () -> Interp.run ~trace:true dp ~width:8 ~inputs)
          in
          List.for_all agrees
            (List.init 50 (fun _ ->
                 List.map (fun v -> (v, Prng.int irng 256)) dfg.Dfg.inputs))
          &&
          match Dfg.used_inputs dfg with
          | [] -> true
          | v :: _ ->
            let inputs = List.filter (fun (w, _) -> w <> v) (List.map (fun w -> (w, 1)) dfg.Dfg.inputs) in
            outcome (fun () -> staged ~inputs)
            = Error ("Interp.run: missing value for input " ^ v)
            && agrees inputs)
        [ Flow.Traditional; testable ])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "eval known values" eval_known_values;
    case "eval wraps at width" eval_wraps_at_width;
    case "eval missing input rejected" eval_missing_input_rejected;
    case "op eval edge semantics" op_eval_division_by_zero;
    case "control table for ex1" control_table_ex1;
    case "control enables" control_enables;
    case "interp matches eval on all benchmarks" interp_matches_eval_paper_benchmarks;
    case "interp trace shows latches" interp_trace_shows_latches;
    case "interp missing input" interp_missing_input;
    case "carried loop iterates correctly" carried_loop_iterates;
    case "loop iterations thread state" loop_iterations_thread_state;
    case "carry timing violation rejected" carry_timing_violation_rejected;
  ]
  @ qcheck
      [
        prop_interp_equivalence_random;
        prop_interp_equivalence_widths;
        prop_control_single_write;
        prop_control_ops_cover_schedule;
        prop_staged_run_reusable;
      ]
