(* Tests for the gate-level substrate: circuits vs reference semantics,
   fault model, fault simulation, LFSR/MISR, BIST session simulation. *)

module Op = Bistpath_dfg.Op
module G = Bistpath_gatelevel
module Circuit = G.Circuit
module Library = G.Library
module Sim = Gate_ops.Sim
module Fault = G.Fault
module Fault_sim = G.Fault_sim
module Lfsr = G.Lfsr
module Misr = Oracles.Misr
module Bist_sim = G.Bist_sim
module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Prng = Prng_ext
module Budget = Bistpath_resilience.Budget

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let first = function x :: _ -> x | [] -> Alcotest.fail "no outputs"

(* Exhaustive verification of every module circuit at width 3. *)
let circuits_exhaustive_w3 () =
  List.iter
    (fun kind ->
      let c = Library.of_kind kind ~width:3 in
      for a = 0 to 7 do
        for b = 0 to 7 do
          let expect = Op.eval kind ~width:3 a b in
          let got = first (Sim.eval_words c ~width:3 [ a; b ]) in
          if got <> expect then
            Alcotest.failf "%s: %d op %d = %d, circuit says %d" (Op.symbol kind) a b
              expect got
        done
      done)
    Op.all_kinds

let adder_carry_out () =
  let c = Library.of_kind Op.Add ~width:4 in
  (* 15 + 1 = 16: sum bits 0, carry 1 *)
  match Sim.eval_words c ~width:4 [ 15; 1 ] with
  | [ sum; carry ] ->
    check Alcotest.int "sum" 0 sum;
    check Alcotest.int "carry" 1 carry
  | _ -> Alcotest.fail "expected two output groups"

let subtractor_borrow () =
  let c = Library.of_kind Op.Sub ~width:4 in
  match Sim.eval_words c ~width:4 [ 3; 5 ] with
  | [ diff; borrow ] ->
    check Alcotest.int "diff (two's complement)" 14 diff;
    check Alcotest.int "borrow" 1 borrow
  | _ -> Alcotest.fail "expected two output groups"

let divider_by_zero () =
  let c = Library.of_kind Op.Div ~width:4 in
  for a = 0 to 15 do
    check Alcotest.int "x/0 = all ones" 15 (first (Sim.eval_words c ~width:4 [ a; 0 ]))
  done

let prop_circuits_random_w8 =
  QCheck.Test.make ~name:"width-8 circuits match reference on random operands" ~count:30
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 7))
    (fun (a, b, ki) ->
      let kind = List.nth Op.all_kinds ki in
      let c = Library.of_kind kind ~width:8 in
      first (Sim.eval_words c ~width:8 [ a; b ]) = Op.eval kind ~width:8 a b)

let alu_matches_each_kind () =
  let kinds = [ Op.Add; Op.Sub; Op.Mul; Op.Less ] in
  let c = Library.alu kinds ~width:4 in
  let rng = Prng.create 5 in
  for _ = 1 to 100 do
    let a = Prng.int rng 16 and b = Prng.int rng 16 in
    List.iteri
      (fun i kind ->
        let bits v = List.init 4 (fun j -> (v lsr j) land 1) in
        let sel = List.init (List.length kinds) (fun j -> if i = j then 1 else 0) in
        let out = Sim.eval_ints c (bits a @ bits b @ sel) in
        let got =
          snd (List.fold_left (fun (j, acc) bit -> (j + 1, acc lor (bit lsl j))) (0, 0) out)
        in
        if got <> Op.eval kind ~width:4 a b then
          Alcotest.failf "ALU %s(%d,%d): got %d" (Op.symbol kind) a b got)
      kinds
  done

let builder_validation () =
  let b = Circuit.Builder.create "t" in
  let x = List.hd (Circuit.Builder.inputs b 1) in
  (match Circuit.Builder.gate b Circuit.Not [ x; x ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Not arity accepted");
  (match Circuit.Builder.gate b Circuit.And [ x ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "And arity accepted");
  (match Circuit.Builder.gate b Circuit.And [ x; 999 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undefined net accepted");
  match Circuit.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no outputs accepted"

(* The fault cones rely on gate order: a circuit with a net driven
   twice, a driven primary input or a gate reading a later gate's net
   does not compile. *)
let compile_rejects_misordered () =
  let c =
    {
      Circuit.name = "t";
      num_nets = 4;
      inputs = [ 0; 1 ];
      outputs = [ 3 ];
      gates =
        [|
          { Circuit.kind = Circuit.And; inputs = [ 0; 1 ]; output = 2 };
          { Circuit.kind = Circuit.Not; inputs = [ 2 ]; output = 3 };
        |];
    }
  in
  ignore (Sim.compile c);
  let rejects what gates =
    match Sim.compile { c with Circuit.gates } with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "a read of a later gate's net" [| c.gates.(1); c.gates.(0) |];
  rejects "a net driven twice"
    [| c.gates.(0); { (c.gates.(1)) with Circuit.output = 2 } |];
  rejects "a driven primary input" [| c.gates.(0); { (c.gates.(1)) with Circuit.output = 1 } |];
  rejects "a gate reading itself" [| { (c.gates.(0)) with Circuit.inputs = [ 0; 2 ] } |]

(* One gate of [kind] over fresh inputs, evaluated by the kernel. *)
let eval_gate kind words =
  let b = Circuit.Builder.create "gate" in
  let ins = Circuit.Builder.inputs b (List.length words) in
  Circuit.Builder.output b (Circuit.Builder.gate b kind ins);
  (Sim.eval (Circuit.Builder.finish b) (Array.of_list words)).(0)

let eval_kind_semantics () =
  let t = -1L and f = 0L in
  check Alcotest.int64 "and" f (eval_gate Circuit.And [ t; f ]);
  check Alcotest.int64 "or" t (eval_gate Circuit.Or [ t; f ]);
  check Alcotest.int64 "nand" t (eval_gate Circuit.Nand [ t; f ]);
  check Alcotest.int64 "nor" f (eval_gate Circuit.Nor [ t; f ]);
  check Alcotest.int64 "xor" t (eval_gate Circuit.Xor [ t; f ]);
  check Alcotest.int64 "xnor" f (eval_gate Circuit.Xnor [ t; f ]);
  check Alcotest.int64 "not" f (eval_gate Circuit.Not [ t ]);
  check Alcotest.int64 "buf" t (eval_gate Circuit.Buf [ t ]);
  check Alcotest.int64 "3-input and" f (eval_gate Circuit.And [ t; t; f ])

let fault_lists () =
  let c = Library.of_kind Op.Add ~width:3 in
  let all = Gate_ops.all_faults c in
  let collapsed = Fault.collapsed c in
  check Alcotest.int "two faults per net" (2 * c.Circuit.num_nets) (List.length all);
  check Alcotest.bool "collapsed is smaller" true (List.length collapsed < List.length all);
  check Alcotest.bool "collapsed subset of all" true
    (List.for_all (fun f -> List.mem f all) collapsed)

(* Soundness of collapsing: on a small circuit, exhaustive patterns must
   detect exactly the same *coverage* = 100% for both lists minus the
   structurally untestable ones. *)
let collapse_soundness_w2 () =
  let c = Library.of_kind Op.Add ~width:2 in
  let patterns = List.concat_map (fun a -> List.init 4 (fun b -> (a, b))) (List.init 4 Fun.id) in
  let run faults = Fault_sim.run_operand_patterns c ~width:2 ~faults ~patterns in
  let r_collapsed = run (Fault.collapsed c) in
  check Alcotest.int "collapsed all detected under exhaustive patterns" 0
    (List.length r_collapsed.Fault_sim.undetected)

let fault_detection_basics () =
  let c = Library.of_kind Op.And ~width:1 in
  (* nets: 0=a, 1=b, 2=out. Fault out s-a-0 detected only by (1,1). *)
  let f = { Fault.net = 2; polarity = Fault.Stuck_at_0 } in
  let r1 = Fault_sim.run_operand_patterns c ~width:1 ~faults:[ f ] ~patterns:[ (0, 1) ] in
  check Alcotest.int "not detected by 0&1" 0 r1.Fault_sim.detected;
  let r2 = Fault_sim.run_operand_patterns c ~width:1 ~faults:[ f ] ~patterns:[ (1, 1) ] in
  check Alcotest.int "detected by 1&1" 1 r2.Fault_sim.detected

let fault_sim_chunking () =
  (* more than 64 patterns exercises multi-chunk packing *)
  let c = Library.of_kind Op.Add ~width:3 in
  let rng = Prng.create 3 in
  let patterns = Gate_ops.random_operand_patterns rng ~width:3 ~count:100 in
  let r = Fault_sim.run_operand_patterns c ~width:3 ~faults:(Fault.collapsed c) ~patterns in
  check Alcotest.bool "high coverage with 100 random patterns" true
    (Fault_sim.coverage r > 0.95)

(* A partial last chunk leaves lanes with no pattern in them. They must
   not grade: a fault only the all-zero vector detects stays undetected
   by fewer than 64 non-zero patterns. *)
let fault_sim_grades_live_lanes_only () =
  let c = Library.of_kind Op.Or ~width:1 in
  (* a | b stuck at 1 shows only when a = b = 0 *)
  let f = { Fault.net = List.hd c.Circuit.outputs; polarity = Fault.Stuck_at_1 } in
  let detected patterns = (Fault_sim.run c ~faults:[ f ] ~patterns).Fault_sim.detected in
  check Alcotest.int "the zero vector detects it" 1 (detected [ [ 0; 0 ] ]);
  check Alcotest.int "non-zero patterns do not" 0
    (detected [ [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ])

let coverage_edge_cases () =
  check (Alcotest.float 1e-9) "empty fault list" 1.0
    (Fault_sim.coverage { Fault_sim.total = 0; detected = 0; undetected = []; skipped = [] })

let lfsr_full_period () =
  List.iter
    (fun width ->
      let l = Lfsr.create ~width ~seed:1 in
      let seen = Hashtbl.create 1024 in
      let rec go n =
        let s = Lfsr.step l in
        if Hashtbl.mem seen s then n
        else begin
          Hashtbl.replace seen s ();
          go (n + 1)
        end
      in
      check Alcotest.int
        (Printf.sprintf "width %d full period" width)
        (Lfsr.period ~width) (go 0))
    [ 2; 3; 4; 5; 8; 10 ]

let lfsr_never_zero () =
  let l = Lfsr.create ~width:6 ~seed:5 in
  for _ = 1 to 200 do
    check Alcotest.bool "non-zero" true (Lfsr.step l <> 0)
  done

let lfsr_validation () =
  (match Lfsr.create ~width:8 ~seed:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero seed accepted");
  (match Lfsr.primitive_taps 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 1 accepted");
  match Lfsr.primitive_taps 33 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 33 accepted"

let misr_properties () =
  check Alcotest.int "empty signature" 0 (Misr.run ~width:8 []);
  let words = [ 1; 2; 3; 4; 5 ] in
  check Alcotest.int "deterministic" (Misr.run ~width:8 words) (Misr.run ~width:8 words);
  check Alcotest.bool "order sensitive" true
    (Misr.run ~width:8 words <> Misr.run ~width:8 (List.rev words));
  check Alcotest.bool "input sensitive" true
    (Misr.run ~width:8 words <> Misr.run ~width:8 [ 1; 2; 3; 4; 6 ])

let bist_sim_ex1_full_coverage () =
  let inst = B.ex1 () in
  let r =
    Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
      inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  let rep = Bist_sim.run ~width:8 ~pattern_count:255 r.Flow.datapath r.Flow.bist in
  check Alcotest.int "two units simulated" 2 (List.length rep.Bist_sim.units);
  check Alcotest.bool "full stuck-at coverage" true
    (Gate_ops.overall_coverage rep >= 0.999);
  List.iter
    (fun u ->
      check Alcotest.bool "aliased subset of detected" true
        (u.Bist_sim.aliased <= u.Bist_sim.faults_detected))
    rep.Bist_sim.units

let bist_sim_deterministic () =
  let inst = B.ex1 () in
  let r =
    Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
      inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  let rep1 = Bist_sim.run ~width:8 ~pattern_count:63 r.Flow.datapath r.Flow.bist in
  let rep2 = Bist_sim.run ~width:8 ~pattern_count:63 r.Flow.datapath r.Flow.bist in
  check Alcotest.bool "same signatures" true
    (List.map (fun u -> u.Bist_sim.signature) rep1.Bist_sim.units
    = List.map (fun u -> u.Bist_sim.signature) rep2.Bist_sim.units);
  (* a different seed changes the pattern streams *)
  let rep3 = Bist_sim.run ~width:8 ~pattern_count:63 ~seed:9 r.Flow.datapath r.Flow.bist in
  check Alcotest.bool "seed changes signatures" true
    (List.map (fun u -> u.Bist_sim.signature) rep1.Bist_sim.units
    <> List.map (fun u -> u.Bist_sim.signature) rep3.Bist_sim.units)

let more_patterns_never_hurt () =
  let inst = B.paulin () in
  let r =
    Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
      inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  let cov n =
    Gate_ops.overall_coverage (Bist_sim.run ~width:6 ~pattern_count:n r.Flow.datapath r.Flow.bist)
  in
  let c15 = cov 15 and c63 = cov 63 in
  check Alcotest.bool "coverage monotone in patterns" true (c63 >= c15)

let prop_alu_random_kind_sets =
  QCheck.Test.make ~name:"random ALUs match reference for every selected kind" ~count:25
    QCheck.(pair (int_bound 254) (pair (int_bound 7) (int_bound 7)))
    (fun (mask, (a, b)) ->
      let kinds =
        List.filteri (fun i _ -> (mask lsr i) land 1 = 1) Op.all_kinds
      in
      match kinds with
      | [] -> true
      | kinds ->
        let c = Library.alu kinds ~width:3 in
        let bits v = List.init 3 (fun j -> (v lsr j) land 1) in
        List.for_all
          (fun i ->
            let sel = List.init (List.length kinds) (fun j -> if i = j then 1 else 0) in
            let out = Sim.eval_ints c (bits a @ bits b @ sel) in
            let got =
              snd (List.fold_left (fun (j, acc) bit -> (j + 1, acc lor (bit lsl j))) (0, 0) out)
            in
            got = Op.eval (List.nth kinds i) ~width:3 a b)
          (List.init (List.length kinds) Fun.id))

(* --- the compiled kernel against the list-based oracles ------------ *)

module Podem = G.Podem
module Telemetry = Bistpath_telemetry.Telemetry

(* A random single-function module or ALU (2-4 kinds) at width 2-6, a
   random subset of its faults and 1-200 random operand pairs — half
   the time at most 8, so most lanes of the one chunk are unused. *)
let random_unit seed =
  let rng = Prng.create seed in
  let width = 2 + Prng.int rng 5 in
  let circuit =
    if Prng.bool rng then Library.of_kind (Prng.pick rng Op.all_kinds) ~width
    else
      let kinds = Array.of_list Op.all_kinds in
      Prng.shuffle rng kinds;
      Library.alu (Array.to_list (Array.sub kinds 0 (2 + Prng.int rng 3))) ~width
  in
  let faults = List.filter (fun _ -> Prng.int rng 4 = 0) (Gate_ops.all_faults circuit) in
  let operands =
    List.init (1 + Prng.int rng (if Prng.bool rng then 8 else 200)) (fun _ ->
        (Prng.int rng (1 lsl width), Prng.int rng (1 lsl width)))
  in
  (rng, width, circuit, faults, operands)

let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"compiled kernel matches list evaluation under a forced fault"
    ~count:100 QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, _, c, faults, _ = random_unit seed in
      let words =
        Array.of_list (List.map (fun _ -> Prng.next_int64 rng) c.Circuit.inputs)
      in
      Sim.eval_nets c words = Oracles.inject c words
      && List.for_all
           (fun f -> Gate_ops.inject c f words = Oracles.inject ~fault:f c words)
           faults)

let prop_fault_sim_matches_oracle =
  QCheck.Test.make ~name:"fault_sim flags match the list-based grader" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, _, c, faults, operands = random_unit seed in
      let patterns =
        List.map
          (fun _ -> List.map (fun _ -> Prng.int rng 2) c.Circuit.inputs)
          operands
      in
      let r = Fault_sim.run c ~faults ~patterns in
      let flags = Oracles.fault_sim_flags c ~faults ~patterns in
      r.Fault_sim.undetected
      = List.filteri (fun i _ -> not (List.nth flags i)) faults
      && r.Fault_sim.detected = List.length (List.filter Fun.id flags))

let prop_bist_grade_matches_oracle =
  QCheck.Test.make ~name:"bist_sim grading matches the lane-by-lane grader" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, width, c, faults, operands = random_unit seed in
      let signature, graded =
        Bist_sim.grade ~width c ~operands:(Array.of_list operands) faults
      in
      let signature', flags = Oracles.bist_grade ~width c ~operands faults in
      signature = signature' && graded = List.map Option.some flags)

let prop_podem_matches_oracle =
  QCheck.Test.make ~name:"podem classification matches the list-based search" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, _, c, _, _ = random_unit seed in
      let max_backtracks = Prng.int rng 30 in
      let cls = Podem.classify_all ~max_backtracks c in
      let tested, untestable, aborted =
        List.fold_left
          (fun (t, u, a) f ->
            match Oracles.podem ~max_backtracks c f with
            | Oracles.Test v -> ((f, v) :: t, u, a)
            | Oracles.Untestable -> (t, f :: u, a)
            | Oracles.Aborted -> (t, u, f :: a))
          ([], [], []) (Fault.collapsed c)
      in
      cls.Podem.tested = tested && cls.Podem.untestable = untestable
      && cls.Podem.aborted = aborted)

(* The nets the cone kernel treats specially: primary inputs (an ALU's
   select lines among them), primary outputs and nets no gate reads.
   An ALU of 2-4 kinds at width 2-5 runs an odd number (65-189) of
   operand pairs per kind, so its session spans several chunks and
   ends in a partial one. *)
let edge_unit seed =
  let rng = Prng.create seed in
  let width = 2 + Prng.int rng 4 in
  let kinds = Array.of_list Op.all_kinds in
  Prng.shuffle rng kinds;
  let c = Library.alu (Array.to_list (Array.sub kinds 0 (2 + Prng.int rng 3))) ~width in
  let read = Array.make c.Circuit.num_nets false in
  Array.iter
    (fun (g : Circuit.gate) -> List.iter (fun n -> read.(n) <- true) g.inputs)
    c.Circuit.gates;
  let edge (f : Fault.t) =
    List.mem f.net c.Circuit.inputs || List.mem f.net c.Circuit.outputs || not read.(f.net)
  in
  let operands =
    List.init (65 + (2 * Prng.int rng 63)) (fun _ ->
        (Prng.int rng (1 lsl width), Prng.int rng (1 lsl width)))
  in
  (rng, width, c, List.filter edge (Gate_ops.all_faults c), operands)

let prop_edge_faults_match_oracles =
  QCheck.Test.make
    ~name:"input, select-line, output and unread-net faults grade as the oracles do"
    ~count:25 QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, width, c, faults, operands = edge_unit seed in
      let signature, graded =
        Bist_sim.grade ~width c ~operands:(Array.of_list operands) faults
      in
      let signature', flags = Oracles.bist_grade ~width c ~operands faults in
      let patterns =
        List.map (fun _ -> List.map (fun _ -> Prng.int rng 2) c.Circuit.inputs) operands
      in
      let r = Fault_sim.run c ~faults ~patterns in
      let hits = Oracles.fault_sim_flags c ~faults ~patterns in
      signature = signature'
      && graded = List.map Option.some flags
      && r.Fault_sim.undetected = List.filteri (fun i _ -> not (List.nth hits i)) faults)

(* A budget that trips partway through a unit's fault list: the faults
   graded before it keep their unbudgeted grades, and every fault after
   it is skipped, by both graders. The deadline is a quarter of the
   fastest of three unbudgeted runs, so it trips before the end. *)
let budget_trips_mid_list () =
  let width = 8 in
  let c = Library.alu [ Op.Add; Op.Sub; Op.Mul ] ~width in
  let faults = Gate_ops.all_faults c in
  let rng = Prng.create 11 in
  let operands = Array.init 255 (fun _ -> (Prng.int rng 256, Prng.int rng 256)) in
  let patterns =
    List.init 200 (fun _ -> List.map (fun _ -> Prng.int rng 2) c.Circuit.inputs)
  in
  let timed f =
    let run () =
      let t0 = Unix.gettimeofday () in
      let x = f () in
      (x, Unix.gettimeofday () -. t0)
    in
    let x, t1 = run () in
    let _, t2 = run () in
    let _, t3 = run () in
    (x, Float.min t1 (Float.min t2 t3))
  in
  let quarter s = Budget.create ~deadline_s:(Float.max 1e-4 (s /. 4.0)) () in
  let (signature, full), t = timed (fun () -> Bist_sim.grade ~width c ~operands faults) in
  let signature', graded =
    Bist_sim.grade ~budget:(quarter t) ~width c ~operands faults
  in
  let k = List.length (List.filter Option.is_some graded) in
  check Alcotest.int "signature" signature signature';
  check Alcotest.bool "tripped before the end" true (k < List.length faults);
  check
    (Alcotest.list (Alcotest.option (Alcotest.pair Alcotest.bool Alcotest.bool)))
    "graded prefix, skipped rest"
    (List.mapi (fun i g -> if i < k then g else None) full)
    graded;
  let whole, t = timed (fun () -> Fault_sim.run c ~faults ~patterns) in
  let r = Fault_sim.run ~budget:(quarter t) c ~faults ~patterns in
  let k = List.length faults - List.length r.Fault_sim.skipped in
  check Alcotest.bool "fault sim tripped before the end" true (k < List.length faults);
  check (Alcotest.list Alcotest.string) "skipped = the faults after the trip"
    (List.filteri (fun i _ -> i >= k) faults |> List.map (Format.asprintf "%a" Fault.pp))
    (List.map (Format.asprintf "%a" Fault.pp) r.Fault_sim.skipped);
  check (Alcotest.list Alcotest.string) "undetected = the prefix's undetected"
    (List.filter (fun f -> List.mem f (List.filteri (fun i _ -> i < k) faults))
       whole.Fault_sim.undetected
    |> List.map (Format.asprintf "%a" Fault.pp))
    (List.map (Format.asprintf "%a" Fault.pp) r.Fault_sim.undetected)

(* The aliasing test rests on this identity: from the zero state, the
   signature of an XOR of two sequences is the XOR of their
   signatures, at every width the register supports here. *)
let prop_misr_linear =
  QCheck.Test.make ~name:"MISR signature is linear from the zero state" ~count:300
    QCheck.(pair (int_range 2 20) (small_list (pair (int_bound 0xFFFFF) (int_bound 0xFFFFF))))
    (fun (width, pairs) ->
      let a = List.map fst pairs and b = List.map snd pairs in
      Misr.run ~width (List.map2 ( lxor ) a b)
      = Misr.run ~width a lxor Misr.run ~width b
      && Misr.run ~width a = List.fold_left (G.Misr.clock ~width) 0 a)

let bist_sim_unit_spans () =
  let inst = B.paulin () in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let rep, t =
    Telemetry.collect (fun () -> Bist_sim.run ~pattern_count:63 r.Flow.datapath r.Flow.bist)
  in
  let spans = List.filter (fun s -> s.Telemetry.name = "bist_sim") (Telemetry.spans t) in
  check (Alcotest.list (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)))
    "one span per graded unit, in report order"
    (List.map (fun u -> [ ("unit", u.Bist_sim.mid) ]) rep.Bist_sim.units)
    (List.map (fun s -> s.Telemetry.attrs) spans)

let coverage_span_holds_units () =
  let inst = B.tseng1 () in
  let r = Flow.run ~style:Flow.Traditional inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  let (), t =
    Telemetry.collect (fun () ->
        ignore (Bist_sim.run ~pattern_count:63 r.Flow.datapath r.Flow.bist))
  in
  match Telemetry.spans t with
  | root :: units ->
    check Alcotest.string "root" "gatelevel.coverage" root.Telemetry.name;
    check Alcotest.int "root depth" 0 root.Telemetry.depth;
    check Alcotest.bool "units" true (units <> []);
    List.iter
      (fun (s : Telemetry.span) ->
        check Alcotest.string "unit span" "bist_sim" s.name;
        check (Alcotest.option Alcotest.int) "under gatelevel.coverage" (Some 0) s.parent)
      units;
    check Alcotest.bool "gate evals counted" true
      (Telemetry.counter t "bist_sim.gate_evals" > 0)
  | [] -> Alcotest.fail "no spans"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "all circuits exhaustive at width 3" circuits_exhaustive_w3;
    case "adder carry-out" adder_carry_out;
    case "subtractor borrow" subtractor_borrow;
    case "divide by zero" divider_by_zero;
    case "ALU matches each kind" alu_matches_each_kind;
    case "builder validation" builder_validation;
    case "gate semantics" eval_kind_semantics;
    case "fault lists" fault_lists;
    case "collapse soundness (width 2, exhaustive)" collapse_soundness_w2;
    case "fault detection basics" fault_detection_basics;
    case "fault sim beyond 64 patterns" fault_sim_chunking;
    case "coverage edge cases" coverage_edge_cases;
    case "LFSR full period" lfsr_full_period;
    case "LFSR never zero" lfsr_never_zero;
    case "LFSR validation" lfsr_validation;
    case "MISR properties" misr_properties;
    case "BIST sim: ex1 full coverage" bist_sim_ex1_full_coverage;
    case "BIST sim deterministic and seedable" bist_sim_deterministic;
    case "coverage monotone in patterns" more_patterns_never_hurt;
  ]
  @ qcheck [ prop_circuits_random_w8; prop_alu_random_kind_sets ]
  @ [
      case "BIST sim: one span per graded unit" bist_sim_unit_spans;
      case "BIST sim: unit spans nest under gatelevel.coverage" coverage_span_holds_units;
    ]
  @ qcheck
      [ prop_kernel_matches_oracle; prop_fault_sim_matches_oracle;
        prop_bist_grade_matches_oracle; prop_podem_matches_oracle;
        prop_edge_faults_match_oracles; prop_misr_linear ]
  @ [
      case "fault sim grades only the live lanes" fault_sim_grades_live_lanes_only;
      case "a budget tripping mid-list skips the rest" budget_trips_mid_list;
      case "compile rejects misordered circuits" compile_rejects_misordered;
    ]
