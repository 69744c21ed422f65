(* Tests for transparent-module I-paths: identity semantics, candidate
   discovery, embedding-space growth, allocator improvement, and session
   channel conflicts. *)

module Op = Bistpath_dfg.Op
module Dfg = Bistpath_dfg.Dfg
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module B = Bistpath_benchmarks.Benchmarks
module Datapath = Bistpath_datapath.Datapath
module Regalloc = Bistpath_datapath.Regalloc
module Ipath = Bistpath_ipath.Ipath
module Transparency = Bistpath_ipath.Transparency
module Allocator = Bistpath_bist.Allocator
module Session = Bistpath_bist.Session
module Resource = Bistpath_bist.Resource
module Flow = Bistpath_core.Flow
module Prng = Bistpath_util.Prng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let testable = Flow.Testable Bistpath_core.Testable_alloc.default_options

(* The transparency table must agree with the operations' semantics:
   holding the identity element really passes the other operand. *)
let identity_semantics () =
  List.iter
    (fun kind ->
      match Transparency.of_kind kind with
      | None -> ()
      | Some m ->
        let width = 6 in
        let hold = m.Transparency.hold_value width in
        for x = 0 to (1 lsl width) - 1 do
          if m.Transparency.through_left then
            check Alcotest.int
              (Printf.sprintf "%s: x %s %d = x" (Op.symbol kind) (Op.symbol kind) hold)
              x
              (Op.eval kind ~width x hold);
          if m.Transparency.through_right then
            check Alcotest.int
              (Printf.sprintf "%s: %d %s x = x" (Op.symbol kind) hold (Op.symbol kind))
              x
              (Op.eval kind ~width hold x)
        done)
    Op.all_kinds

let less_has_no_mode () =
  check Alcotest.bool "Less opaque" true (Transparency.of_kind Op.Less = None);
  check Alcotest.bool "Sub passes left only" true
    (match Transparency.of_kind Op.Sub with
    | Some m -> m.Transparency.through_left && not m.Transparency.through_right
    | None -> false)

let alu_passes_if_any_kind_does () =
  let mk kinds = { Massign.mid = "U"; kinds } in
  check Alcotest.bool "less-only ALU opaque" false
    (Transparency.unit_passes (mk [ Op.Less ]) `Left);
  check Alcotest.bool "less+add ALU passes" true
    (Transparency.unit_passes (mk [ Op.Less; Op.Add ]) `Left);
  check Alcotest.bool "sub ALU does not pass right" false
    (Transparency.unit_passes (mk [ Op.Sub; Op.Less ]) `Right)

(* Constructed chain: R_a -> ADD -> R_u -> MUL.L. With transparency, R_a
   and R_b become pattern sources for MUL's left port through ADD. *)
let chain_dfg () =
  let ops =
    [
      { Op.id = "+1"; kind = Op.Add; left = "a"; right = "b"; out = "u" };
      { Op.id = "*1"; kind = Op.Mul; left = "u"; right = "k"; out = "p" };
    ]
  in
  let dfg =
    Dfg.make ~name:"chain" ~ops ~inputs:[ "a"; "b"; "k" ] ~outputs:[ "p" ]
      ~schedule:[ ("+1", 1); ("*1", 2) ]
  in
  let massign =
    Massign.make dfg
      ~units:[ { mid = "ADD"; kinds = [ Op.Add ] }; { mid = "MUL"; kinds = [ Op.Mul ] } ]
      ~bind:[ ("+1", "ADD"); ("*1", "MUL") ]
  in
  let ra =
    Regalloc.make
      [ ("Ra", [ "a" ]); ("Rb", [ "b" ]); ("Rk", [ "k" ]); ("Ru", [ "u"; "p" ]) ]
  in
  Datapath.build dfg massign ra ~policy:Policy.default ~swap:(fun _ -> false)

let transparent_candidates_found () =
  let dp = chain_dfg () in
  let extras = Ipath.tpg_candidates_transparent dp "MUL" Ipath.L in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "Ra and Rb reach MUL.L via ADD"
    [ ("Ra", "ADD"); ("Rb", "ADD") ]
    extras;
  (* the simple source Ru is not repeated *)
  check Alcotest.bool "no duplicate of simple source" true
    (not (List.mem_assoc "Ru" extras));
  (* nothing reaches MUL's right port that way (ADD's output feeds only
     Ru which is not an R-port source) *)
  check Alcotest.int "right port gains nothing" 0
    (List.length (Ipath.tpg_candidates_transparent dp "MUL" Ipath.R))

let embedding_space_grows () =
  let dp = chain_dfg () in
  let plain = Oracles.embeddings dp "MUL" in
  let extended = Oracles.embeddings ~transparency:true dp "MUL" in
  check Alcotest.bool "superset" true (List.length extended > List.length plain);
  (* all plain embeddings still present (same registers, no via) *)
  List.iter
    (fun (e : Ipath.embedding) ->
      check Alcotest.bool "plain embedding kept" true (List.mem e extended))
    plain;
  (* extended ones carry their channel *)
  check Alcotest.bool "some embedding routes via ADD" true
    (List.exists (fun (e : Ipath.embedding) -> e.l_via = Some "ADD") extended)

let allocator_never_worse_paper () =
  List.iter
    (fun tag ->
      let inst = Option.get (B.by_tag tag) in
      let run tr =
        (Flow.run ~transparency:tr ~style:testable inst.B.dfg inst.B.massign
           ~policy:inst.B.policy).Flow.bist.Allocator.delta_gates
      in
      check Alcotest.bool (tag ^ ": transparency never worse") true (run true <= run false))
    [ "ex1"; "ex2"; "Tseng1"; "Tseng2"; "Paulin"; "iir"; "dct4" ]

let prop_allocator_never_worse_random =
  (* Transparency can only shrink the untestable set; when it leaves the
     set of tested units unchanged and both searches complete, the
     minimum cannot increase. (Testing MORE units may legitimately cost
     more gates.) *)
  QCheck.Test.make ~name:"transparency: untestable shrinks; same-scope cost never rises"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:4 in
      let run tr =
        (Flow.run ~transparency:tr ~style:testable inst.B.dfg inst.B.massign
           ~policy:inst.B.policy).Flow.bist
      in
      let plain = run false and trans = run true in
      List.for_all
        (fun m -> List.mem m plain.Allocator.untestable)
        trans.Allocator.untestable
      && (plain.Allocator.untestable <> trans.Allocator.untestable
         || (not (plain.Allocator.exact && trans.Allocator.exact))
         || trans.Allocator.delta_gates <= plain.Allocator.delta_gates))

let channel_session_conflict () =
  let mk mid l r sa l_via =
    { Ipath.mid; l_tpg = l; r_tpg = r; sa; l_via; r_via = None }
  in
  let sol embeddings =
    { Allocator.embeddings; styles = []; untestable = []; delta_gates = 0; exact = true }
  in
  (* B's patterns flow through unit A, so A cannot be under test in the
     same session *)
  let s =
    Session.schedule
      (sol [ mk "A" "R1" "R2" "R3" None; mk "B" "R4" "R5" "R6" (Some "A") ])
  in
  check Alcotest.int "channel conflict: 2 sessions" 2 (Session.num_sessions s);
  let s2 =
    Session.schedule
      (sol [ mk "A" "R1" "R2" "R3" None; mk "B" "R4" "R5" "R6" (Some "C") ])
  in
  check Alcotest.int "other channel: 1 session" 1 (Session.num_sessions s2)

let transparency_solution_still_simulates () =
  (* The gate-level BIST simulation only depends on the chosen TPG/SA
     registers; a transparent solution must still produce a valid report. *)
  let inst = Option.get (B.by_tag "iir") in
  let r =
    Flow.run ~transparency:true ~style:testable inst.B.dfg inst.B.massign
      ~policy:inst.B.policy
  in
  let rep = Bistpath_gatelevel.Bist_sim.run ~width:6 ~pattern_count:63 r.Flow.datapath r.Flow.bist in
  check Alcotest.bool "coverage sane" true
    (Gate_ops.overall_coverage rep > 0.5)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "identity semantics" identity_semantics;
    case "kind modes" less_has_no_mode;
    case "ALU transparency" alu_passes_if_any_kind_does;
    case "transparent candidates found" transparent_candidates_found;
    case "embedding space grows" embedding_space_grows;
    case "allocator never worse (paper benchmarks)" allocator_never_worse_paper;
    case "channel session conflict" channel_session_conflict;
    case "transparent solution simulates" transparency_solution_still_simulates;
  ]
  @ qcheck [ prop_allocator_never_worse_random ]
