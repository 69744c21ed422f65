(* Tests for the paper's Lemma 2 (register-assignment conditions forcing
   a CBILBO) and its agreement with embedding-level analysis on built
   data paths. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module B = Bistpath_benchmarks.Benchmarks
module Sharing = Bistpath_core.Sharing
module Cbilbo_rules = Bistpath_core.Cbilbo_rules
module Flow = Bistpath_core.Flow
module Ipath = Bistpath_ipath.Ipath
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* Lemma 2 through the library's two entry points: one unit's entry in
   the per-unit verdicts, and the live counters grown over a whole
   assignment. *)
let check_module ctx ~mid ~classes =
  List.find (fun v -> String.equal v.Cbilbo_rules.mid mid) (Cbilbo_rules.verdicts ctx ~classes)

let min_cbilbo_count ctx ~classes =
  let t = Cbilbo_rules.create ctx in
  List.iteri
    (fun i (rid, vars) ->
      Cbilbo_rules.open_register t rid;
      List.sort_uniq compare vars
      |> List.iter (fun v -> Option.iter (Cbilbo_rules.add t i) (Sharing.var_index ctx v)))
    classes;
  Cbilbo_rules.min_count t

let ex1_ctx () =
  let inst = B.ex1 () in
  (inst, Sharing.make inst.B.dfg inst.B.massign)

(* The paper's final ex1 allocation: {c,f,a}, {d,g,b,h}, {e}. M1's two
   output variables d and f sit in two registers each of which also
   holds an operand of every M1 instance -> case (ii). *)
let ex1_final_forces_cbilbo () =
  let _, ctx = ex1_ctx () in
  let classes = [ ("RA", [ "c"; "f"; "a" ]); ("RB", [ "d"; "g"; "b"; "h" ]); ("RC", [ "e" ]) ] in
  let v1 = check_module ctx ~mid:"M1" ~classes in
  check Alcotest.bool "M1 forced" true (Cbilbo_rules.forced v1);
  check Alcotest.int "via case ii" 1 (List.length v1.Cbilbo_rules.case_ii);
  check Alcotest.int "not case i" 0 (List.length v1.Cbilbo_rules.case_i);
  let v2 = check_module ctx ~mid:"M2" ~classes in
  (* O_M2 = {c,h} splits across RA and RB, but RA misses instance *2
     ({e,g}) entirely, so case (ii) does not fire: M2 is not forced. *)
  check Alcotest.bool "M2 not forced" false (Cbilbo_rules.forced v2);
  check Alcotest.int "min CBILBO count collapses shared registers" 1
    (min_cbilbo_count ctx ~classes)

let case_i_constructed () =
  (* Single unit, two instances; all outputs in R1 which also holds an
     operand of each instance. *)
  let ops =
    [
      { Op.id = "+1"; kind = Op.Add; left = "a"; right = "b"; out = "u" };
      { Op.id = "+2"; kind = Op.Add; left = "u"; right = "c"; out = "v" };
    ]
  in
  let dfg =
    Dfg.make ~name:"casei" ~ops ~inputs:[ "a"; "b"; "c" ] ~outputs:[ "v" ]
      ~schedule:[ ("+1", 1); ("+2", 2) ]
  in
  let massign =
    Massign.make dfg
      ~units:[ { mid = "ADD"; kinds = [ Op.Add ] } ]
      ~bind:[ ("+1", "ADD"); ("+2", "ADD") ]
  in
  let ctx = Sharing.make dfg massign in
  (* R1 = {a, u, v}: contains O = {u,v} entirely; a covers instance 1,
     u covers instance 2. *)
  let classes = [ ("R1", [ "a"; "u"; "v" ]); ("R2", [ "b"; "c" ]) ] in
  let v = check_module ctx ~mid:"ADD" ~classes in
  check (Alcotest.list Alcotest.string) "case i names R1" [ "R1" ] v.Cbilbo_rules.case_i;
  (* moving v out of R1 breaks case i but enables case ii only if R2
     covers all instances: R2 = {b,c,v} covers (b in I^1, c in I^2) *)
  let classes2 = [ ("R1", [ "a"; "u" ]); ("R2", [ "b"; "c"; "v" ]) ] in
  let v2 = check_module ctx ~mid:"ADD" ~classes:classes2 in
  check Alcotest.int "case ii pair" 1 (List.length v2.Cbilbo_rules.case_ii);
  (* spreading outputs over a register that misses an instance avoids it *)
  let classes3 = [ ("R1", [ "a"; "u" ]); ("R2", [ "b"; "v" ]); ("R3", [ "c" ]) ] in
  let v3 = check_module ctx ~mid:"ADD" ~classes:classes3 in
  check Alcotest.bool "not forced" false (Cbilbo_rules.forced v3)

let partial_assignment_not_forced () =
  let _, ctx = ex1_ctx () in
  (* before outputs are fully assigned, nothing is forced *)
  let classes = [ ("R1", [ "d" ]); ("R2", [ "c" ]) ] in
  check Alcotest.bool "partial not forced" false
    (List.exists Cbilbo_rules.forced (Cbilbo_rules.verdicts ctx ~classes))

(* Embedding-level agreement: if Lemma 2 fires for a module on the final
   register assignment, then the data path built with minimum
   interconnect has no CBILBO-free embedding for it. *)
let run_flow inst =
  Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
    inst.B.dfg inst.B.massign ~policy:inst.B.policy

(* The lemma is exact only for all-commutative units (the paper's
   operating assumption); non-commutative instances pin operand sides
   and can open CBILBO-free escapes. *)
let all_commutative inst mid =
  List.for_all
    (fun (o : Op.t) -> Op.commutative o.Op.kind)
    (Massign.instances inst.B.massign inst.B.dfg mid)

let lemma_matches_embeddings_on tag =
  match B.by_tag tag with
  | None -> Alcotest.fail tag
  | Some inst ->
    let r = run_flow inst in
    let ctx = Sharing.make inst.B.dfg inst.B.massign in
    let classes = r.Flow.regalloc.Bistpath_datapath.Regalloc.classes in
    List.iter
      (fun mid ->
        let lemma =
          Cbilbo_rules.forced
            (check_module ctx ~mid ~classes)
        in
        let embedding_forced = Oracles.cbilbo_unavoidable r.Flow.datapath mid in
        if all_commutative inst mid && lemma && not embedding_forced then
          Alcotest.failf "%s/%s: lemma fires but an embedding avoids the CBILBO" tag mid)
      (Sharing.units ctx)

let lemma_vs_embeddings_paper () =
  List.iter lemma_matches_embeddings_on [ "ex1"; "ex2"; "Tseng1"; "Tseng2" ]

(* The lemma predicts, from the register assignment alone, what the
   post-interconnect embedding analysis will find. The prediction is not
   universally exact (when minimum-connection orientations tie, the
   optimizer may pick a balanced one that escapes the predicted CBILBO),
   so we pin down its measured quality as a deterministic contract over
   a fixed corpus: perfect precision, high recall, on all-commutative
   units. *)
let lemma_prediction_quality () =
  let tp = ref 0 and fp = ref 0 and fn = ref 0 and tn = ref 0 in
  for seed = 0 to 800 do
    let rng = Prng.create seed in
    let inst = B.random rng ~ops:8 ~inputs:3 in
    if inst.B.policy.Policy.allocate_inputs then begin
      let r = run_flow inst in
      let ctx = Sharing.make inst.B.dfg inst.B.massign in
      let classes = r.Flow.regalloc.Bistpath_datapath.Regalloc.classes in
      List.iter
        (fun mid ->
          if all_commutative inst mid && Oracles.embeddings r.Flow.datapath mid <> []
          then begin
            let lemma =
              Cbilbo_rules.forced
                (check_module ctx ~mid ~classes)
            in
            match (lemma, Oracles.cbilbo_unavoidable r.Flow.datapath mid) with
            | true, true -> incr tp
            | true, false -> incr fp
            | false, true -> incr fn
            | false, false -> incr tn
          end)
        (Sharing.units ctx)
    end
  done;
  check Alcotest.bool "corpus large enough" true (!tp + !fp + !fn + !tn > 1000);
  check Alcotest.int "no false positives on this corpus" 0 !fp;
  check Alcotest.bool "substantial true positives" true (!tp > 100);
  let recall = float_of_int !tp /. float_of_int (max 1 (!tp + !fn)) in
  check Alcotest.bool (Printf.sprintf "recall >= 0.8 (got %.2f)" recall) true
    (recall >= 0.8)

let prop_lemma1 =
  (* Lemma 1: if every BIST embedding of a unit requires a CBILBO, the
     unit has at most two output registers. *)
  QCheck.Test.make ~name:"Lemma 1: unavoidable CBILBO implies |OR| <= 2" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:4 in
      let r = run_flow inst in
      List.for_all
        (fun (u : Massign.hw) ->
          (not (Oracles.cbilbo_unavoidable r.Flow.datapath u.mid))
          || List.length
               (Bistpath_datapath.Datapath.output_registers r.Flow.datapath u.mid)
             <= 2)
        inst.B.massign.Massign.units)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "ex1 final allocation forces one CBILBO" ex1_final_forces_cbilbo;
    case "case (i) and case (ii) constructed" case_i_constructed;
    case "partial assignment not forced" partial_assignment_not_forced;
    case "lemma agrees with embeddings on paper benchmarks" lemma_vs_embeddings_paper;
    case "lemma prediction quality (fixed corpus)" lemma_prediction_quality;
  ]
  @ qcheck [ prop_lemma1 ]
