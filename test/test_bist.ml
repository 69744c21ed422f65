(* Tests for the BIST substrate: I-paths, embeddings, resource styles,
   the minimal-area allocation search, and session scheduling. *)

module B = Bistpath_benchmarks.Benchmarks
module Datapath = Bistpath_datapath.Datapath
module Ipath = Bistpath_ipath.Ipath
module Resource = Bistpath_bist.Resource
module Allocator = Bistpath_bist.Allocator
module Session = Bistpath_bist.Session
module Flow = Bistpath_core.Flow
module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Prng = Bistpath_util.Prng
module Listx = Bistpath_util.Listx

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let run_flow ?(style = Flow.Testable Bistpath_core.Testable_alloc.default_options) inst =
  Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy

let styles_lattice () =
  let open Resource in
  check Alcotest.string "no roles" "none" (style_label (style_of_roles []));
  check Alcotest.string "gen only" "TPG" (style_label (style_of_roles [ Generates "M1"; Generates "M2" ]));
  check Alcotest.string "compact only" "SA" (style_label (style_of_roles [ Compacts "M1" ]));
  check Alcotest.string "mixed across modules" "TPG/SA"
    (style_label (style_of_roles [ Generates "M1"; Compacts "M2" ]));
  check Alcotest.string "concurrent for one module" "CBILBO"
    (style_label (style_of_roles [ Generates "M1"; Compacts "M1" ]));
  check Alcotest.string "cbilbo dominates" "CBILBO"
    (style_label (style_of_roles [ Generates "M1"; Compacts "M1"; Generates "M2" ]))

let delta_gates_order () =
  let m = Bistpath_datapath.Area.default in
  let d s = Resource.delta_gates m ~width:8 s in
  check Alcotest.int "normal free" 0 (d Resource.Normal);
  check Alcotest.bool "ordering" true
    (d Resource.Tpg < d Resource.Sa
    && d Resource.Sa < d Resource.Bilbo
    && d Resource.Bilbo < d Resource.Cbilbo)

let ex1_embeddings () =
  let r = run_flow (B.ex1 ()) in
  let dp = r.Flow.datapath in
  (* M1: L={R}, R={R'}, SA candidates 2 -> 2 embeddings, all CBILBO *)
  let e1 = Oracles.embeddings dp "M1" in
  check Alcotest.int "M1 embeddings" 2 (List.length e1);
  check Alcotest.bool "M1 unavoidable" true (Oracles.cbilbo_unavoidable dp "M1");
  (* M2 has a CBILBO-free embedding *)
  check Alcotest.bool "M2 avoidable" false (Oracles.cbilbo_unavoidable dp "M2");
  (* distinct TPGs enforced *)
  List.iter
    (fun (e : Ipath.embedding) ->
      check Alcotest.bool "distinct TPGs" true (e.l_tpg <> e.r_tpg))
    (e1 @ Oracles.embeddings dp "M2")

let ex1_simple_ipaths () =
  let r = run_flow (B.ex1 ()) in
  let paths = Ipath.simple_ipaths r.Flow.datapath in
  check Alcotest.int "9 simple I-paths" 9 (List.length paths);
  check Alcotest.bool "sorted distinct" true
    (List.sort_uniq compare paths = paths)

let ex1_minimal_solution_is_papers () =
  let r = run_flow (B.ex1 ()) in
  let sol = r.Flow.bist in
  check Alcotest.bool "exact" true sol.Allocator.exact;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "1 CBILBO + 1 TPG (Table II)"
    [ ("CBILBO", 1); ("TPG", 1) ]
    (List.map
       (fun (s, n) -> (Resource.style_label s, n))
       (Allocator.style_counts sol));
  (* the paper's cost: one CBILBO (7/bit) + one TPG (3/bit) at 8 bits *)
  check Alcotest.int "delta gates" 80 sol.Allocator.delta_gates

(* Brute-force optimality check on ex1: enumerate all embedding
   combinations and verify the B&B found the cheapest. *)
let ex1_allocator_optimal () =
  let r = run_flow (B.ex1 ()) in
  let dp = r.Flow.datapath in
  let e1 = Oracles.embeddings dp "M1" and e2 = Oracles.embeddings dp "M2" in
  let m = Bistpath_datapath.Area.default in
  let cost pair =
    let roles = Hashtbl.create 8 in
    let add rid role =
      Hashtbl.replace roles rid
        (role :: (match Hashtbl.find_opt roles rid with Some l -> l | None -> []))
    in
    List.iter
      (fun (e : Ipath.embedding) ->
        add e.l_tpg (Resource.Generates e.mid);
        add e.r_tpg (Resource.Generates e.mid);
        add e.sa (Resource.Compacts e.mid))
      pair;
    Hashtbl.fold
      (fun _ rs acc -> acc + Resource.delta_gates m ~width:8 (Resource.style_of_roles rs))
      roles 0
  in
  let best =
    List.concat_map (fun a -> List.map (fun b -> cost [ a; b ]) e2) e1
    |> List.fold_left min max_int
  in
  check Alcotest.int "B&B matches brute force" best r.Flow.bist.Allocator.delta_gates

let paper_solutions_exact () =
  List.iter
    (fun inst ->
      let t = run_flow inst in
      let tr = run_flow ~style:Flow.Traditional inst in
      check Alcotest.bool (inst.B.tag ^ " testable exact") true t.Flow.bist.Allocator.exact;
      check Alcotest.bool (inst.B.tag ^ " traditional exact") true tr.Flow.bist.Allocator.exact;
      check (Alcotest.list Alcotest.string) (inst.B.tag ^ " all units testable") []
        t.Flow.bist.Allocator.untestable)
    (B.table1 ())

let forbidden_styles_respected () =
  let inst = B.paulin () in
  let r = run_flow inst in
  let sol =
    Allocator.solve ~forbidden:[ Resource.Bilbo; Resource.Cbilbo ] r.Flow.datapath
  in
  List.iter
    (fun (_, s) ->
      check Alcotest.bool "no mixed styles" true
        (s <> Resource.Bilbo && s <> Resource.Cbilbo))
    sol.Allocator.styles

let forbidden_infeasible_drops_units () =
  (* ex1's M1 requires a CBILBO in every embedding; forbidding CBILBO
     must drop M1 as untestable rather than produce one. *)
  let r = run_flow (B.ex1 ()) in
  let sol = Allocator.solve ~forbidden:[ Resource.Cbilbo ] r.Flow.datapath in
  check Alcotest.bool "M1 reported untestable" true
    (List.mem "M1" sol.Allocator.untestable);
  List.iter
    (fun (_, s) -> check Alcotest.bool "style allowed" true (s <> Resource.Cbilbo))
    sol.Allocator.styles

let overhead_formula () =
  let r = run_flow (B.ex1 ()) in
  let dp = r.Flow.datapath in
  let sol = r.Flow.bist in
  let base =
    Bistpath_datapath.Area.functional_gates Bistpath_datapath.Area.default ~width:8 dp
  in
  let expected = 100.0 *. float_of_int sol.Allocator.delta_gates /. float_of_int base in
  check (Alcotest.float 1e-9) "overhead percent" expected
    (Allocator.overhead_percent dp sol)

let sessions_ex1 () =
  let r = run_flow (B.ex1 ()) in
  (* both units share the SA register -> two sessions *)
  check Alcotest.int "two sessions" 2 (Session.num_sessions r.Flow.sessions)

let sessions_conflict_rules () =
  let mk mid l r sa =
    { Ipath.mid; l_tpg = l; r_tpg = r; sa; l_via = None; r_via = None }
  in
  let sol_of embeddings styles =
    {
      Allocator.embeddings;
      styles;
      untestable = [];
      delta_gates = 0;
      exact = true;
    }
  in
  (* shared SA -> conflict *)
  let s1 =
    Session.schedule
      (sol_of [ mk "A" "R1" "R2" "R3"; mk "B" "R4" "R5" "R3" ]
         [ ("R3", Resource.Sa) ])
  in
  check Alcotest.int "shared SA: 2 sessions" 2 (Session.num_sessions s1);
  (* TPG of one is SA of other, plain BILBO -> conflict *)
  let s2 =
    Session.schedule
      (sol_of [ mk "A" "R1" "R2" "R3"; mk "B" "R3" "R5" "R6" ]
         [ ("R3", Resource.Bilbo) ])
  in
  check Alcotest.int "bilbo mixed duty: 2 sessions" 2 (Session.num_sessions s2);
  (* same but CBILBO -> concurrent allowed *)
  let s3 =
    Session.schedule
      (sol_of [ mk "A" "R1" "R2" "R3"; mk "B" "R3" "R5" "R6" ]
         [ ("R3", Resource.Cbilbo) ])
  in
  check Alcotest.int "cbilbo resolves: 1 session" 1 (Session.num_sessions s3);
  (* disjoint resources -> one session *)
  let s4 =
    Session.schedule (sol_of [ mk "A" "R1" "R2" "R3"; mk "B" "R4" "R5" "R6" ] [])
  in
  check Alcotest.int "disjoint: 1 session" 1 (Session.num_sessions s4)

(* fir16 is past the allocator's fixed node cap: the search stops
   inexact but never worse than the greedy warm start, which is what a
   budget cancelled before the first node returns. *)
let node_cap_degrades_gracefully () =
  let r = run_flow (Option.get (B.by_tag "fir16")) in
  let sol = Allocator.solve r.Flow.datapath in
  check Alcotest.bool "not exact" false sol.Allocator.exact;
  check (Alcotest.list Alcotest.string) "every unit testable" [] sol.Allocator.untestable;
  let token = Cancel.create () in
  ignore (Cancel.cancel token (Cancel.Cancelled "test"));
  let budget = Budget.create ~cancel:token () in
  let warm = Allocator.solve ~budget r.Flow.datapath in
  check Alcotest.bool "capped search no worse than warm start" true
    (sol.Allocator.delta_gates <= warm.Allocator.delta_gates)

let prop_solution_consistent =
  QCheck.Test.make ~name:"solution styles consistent with embeddings" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:4 in
      let r = run_flow inst in
      let sol = r.Flow.bist in
      (* every embedding's registers carry a non-Normal style *)
      List.for_all
        (fun (e : Ipath.embedding) ->
          List.for_all
            (fun rid -> List.assoc rid sol.Allocator.styles <> Resource.Normal)
            [ e.l_tpg; e.r_tpg; e.sa ])
        sol.Allocator.embeddings
      (* and the declared cost equals the style cost sum *)
      && sol.Allocator.delta_gates
         = Listx.sum_by
             (fun (_, s) ->
               Resource.delta_gates Bistpath_datapath.Area.default ~width:8 s)
             sol.Allocator.styles)

let prop_one_embedding_per_testable_unit =
  QCheck.Test.make ~name:"exactly one embedding per testable unit" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:4 in
      let r = run_flow inst in
      let sol = r.Flow.bist in
      let mids = List.map (fun (e : Ipath.embedding) -> e.mid) sol.Allocator.embeddings in
      List.sort_uniq compare mids = List.sort compare mids
      && List.for_all (fun m -> not (List.mem m mids)) sol.Allocator.untestable)

let prop_sessions_cover_all_embeddings =
  QCheck.Test.make ~name:"sessions partition the tested units" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:10 ~inputs:4 in
      let r = run_flow inst in
      let scheduled = List.concat r.Flow.sessions.Session.sessions in
      let mids =
        List.map (fun (e : Ipath.embedding) -> e.mid) r.Flow.bist.Allocator.embeddings
      in
      List.sort compare scheduled = List.sort compare mids)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "style lattice" styles_lattice;
    case "delta gates ordering" delta_gates_order;
    case "ex1 embeddings" ex1_embeddings;
    case "ex1 simple I-paths" ex1_simple_ipaths;
    case "ex1 minimal solution matches the paper" ex1_minimal_solution_is_papers;
    case "ex1 allocator optimal (brute force)" ex1_allocator_optimal;
    case "paper solutions exact and complete" paper_solutions_exact;
    case "forbidden styles respected" forbidden_styles_respected;
    case "forbidden infeasible drops units" forbidden_infeasible_drops_units;
    case "overhead formula" overhead_formula;
    case "ex1 sessions" sessions_ex1;
    case "node budget degrades gracefully" node_cap_degrades_gracefully;
    case "session conflict rules" sessions_conflict_rules;
  ]
  @ qcheck
      [
        prop_solution_consistent;
        prop_one_embedding_per_testable_unit;
        prop_sessions_cover_all_embeddings;
      ]
