(* The incremental algorithms against their list-scan oracles
   (oracles.ml): Lemma-2 verdicts and CBILBO counts, both from
   ~classes and through the live counters the testable allocator keeps;
   sharing degrees from unit masks; the preferred PEO; the
   Tseng-Siewiorek clique partition, including its score rule; and the
   indexed BIST branch-and-bound against the string-keyed one, node
   count included; and the factored embedding table against the
   materialised embedding lists. *)

module B = Bistpath_benchmarks.Benchmarks
module Dfg = Bistpath_dfg.Dfg
module Ugraph = Graph_ops.Ugraph
module Interval = Graph_ops.Interval
module Chordal = Bistpath_graphs.Chordal
module Clique_partition = Bistpath_graphs.Clique_partition
module Sharing = Bistpath_core.Sharing
module Cbilbo_rules = Bistpath_core.Cbilbo_rules
module Prng = Prng_ext
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Resource = Bistpath_bist.Resource
module Allocator = Bistpath_bist.Allocator
module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign
module Ipath = Bistpath_ipath.Ipath
module Telemetry = Bistpath_telemetry.Telemetry
module Session = Bistpath_bist.Session

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* A random design and a random partial, disjoint register assignment
   over its variables. Register ids are drawn from R1..R12 out of order,
   so the cover's string-order tie-break ("R10" < "R2") is exercised. *)
let random_assignment seed =
  let rng = Prng.create seed in
  let inst = B.random rng ~ops:(4 + Prng.int rng 10) ~inputs:(2 + Prng.int rng 3) in
  let ids = Array.init 12 (fun i -> Printf.sprintf "R%d" (i + 1)) in
  Prng.shuffle rng ids;
  let k = 1 + Prng.int rng 6 in
  let slots = Array.make k [] in
  List.iter
    (fun v -> if Prng.int rng 4 > 0 then let s = Prng.int rng k in slots.(s) <- v :: slots.(s))
    (Dfg.variables inst.B.dfg);
  let classes = List.init k (fun s -> (ids.(s), List.rev slots.(s))) in
  (inst, rng, classes)

let prop_lemma2_matches_oracle =
  QCheck.Test.make ~name:"Lemma-2 verdicts and count match the set-equality oracle"
    ~count:300 QCheck.(int_bound 100_000)
    (fun seed ->
      let inst, _, classes = random_assignment seed in
      let dfg = inst.B.dfg and massign = inst.B.massign in
      let ctx = Sharing.make dfg massign in
      List.for_all
        (fun mid ->
          let v = Test_cbilbo.check_module ctx ~mid ~classes in
          (v.Cbilbo_rules.case_i, v.Cbilbo_rules.case_ii)
          = Oracles.check_module dfg massign ~mid ~classes)
        (Sharing.units ctx)
      && Test_cbilbo.min_cbilbo_count ctx ~classes
         = Oracles.min_cbilbo_count dfg massign ~classes)

(* Grow the same assignment one variable at a time through the live
   counters; before every addition, the count as if a variable went to
   each register must equal the oracle's count of that snapshot. *)
let prop_live_counters_match_oracle =
  QCheck.Test.make ~name:"live Lemma-2 counters match the oracle at every step"
    ~count:150 QCheck.(int_bound 100_000)
    (fun seed ->
      let inst, rng, classes = random_assignment seed in
      let dfg = inst.B.dfg and massign = inst.B.massign in
      let ctx = Sharing.make dfg massign in
      let live = Cbilbo_rules.create ctx in
      List.iter (fun (rid, _) -> Cbilbo_rules.open_register live rid) classes;
      let held = Array.of_list (List.map (fun (rid, _) -> (rid, ref [])) classes) in
      let snapshot () = Array.to_list (Array.map (fun (rid, vs) -> (rid, !vs)) held) in
      let adds =
        List.concat (List.mapi (fun i (_, vars) -> List.map (fun v -> (i, v)) vars) classes)
        |> Array.of_list
      in
      Prng.shuffle rng adds;
      Array.for_all
        (fun (i, v) ->
          let vi = Option.get (Sharing.var_index ctx v) in
          let ok =
            Cbilbo_rules.min_count live = Oracles.min_cbilbo_count dfg massign ~classes:(snapshot ())
            && List.for_all
                 (fun j ->
                   let with_v =
                     List.mapi (fun j' (rid, vs) -> (rid, if j' = j then v :: vs else vs)) (snapshot ())
                   in
                   Cbilbo_rules.min_count_with live j vi
                   = Oracles.min_cbilbo_count dfg massign ~classes:with_v)
                 (List.init (Array.length held) Fun.id)
          in
          Cbilbo_rules.add live i vi;
          let _, vs = held.(i) in
          vs := v :: !vs;
          ok)
        adds)

let prop_sd_matches_oracle =
  QCheck.Test.make ~name:"mask sharing degrees match the set-scan oracle" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let inst, _, classes = random_assignment seed in
      let ctx = Sharing.make inst.B.dfg inst.B.massign in
      List.for_all
        (fun (_, vars) ->
          Sharing.sd_vars ctx vars = Oracles.sd_vars inst.B.dfg inst.B.massign vars
          && List.for_all
               (fun v -> Sharing.sd_var ctx v = Oracles.sd_vars inst.B.dfg inst.B.massign [ v ])
               vars)
        classes)

(* Interval graphs are chordal; keys drawn from a small range tie often,
   so the vertex-order tie-break is exercised too. *)
let prop_peo_matches_oracle =
  QCheck.Test.make ~name:"incremental PEO matches the full-rescan oracle" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Interval.graph (Interval.random rng ~n ~horizon:(max 2 (n / 2))) in
      let keys = Array.init n (fun _ -> Prng.int rng 4) in
      let key v = keys.(v) in
      Chordal.peo_with_preference g ~key
      = Oracles.peo_with_preference g ~prefer:(fun u v -> compare (key u) (key v)))

(* Random graphs with random, possibly asymmetric weights, some of them
   above 10,000. *)
let prop_clique_partition_matches_oracle =
  QCheck.Test.make ~name:"incremental clique partition matches the rescan oracle" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 0 24))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let density = 20 + Prng.int rng 70 in
      let edges =
        List.concat_map
          (fun u ->
            List.filter_map
              (fun v -> if u < v && Prng.int rng 100 < density then Some (u, v) else None)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let g = Ugraph.of_edges ~vertices:(List.init n Fun.id) edges in
      let scale = if Prng.bool rng then 3 else 30_000 in
      let w = Array.init n (fun _ -> Array.init n (fun _ -> Prng.int rng scale)) in
      let weight u v = w.(u).(v) in
      let sets l = List.map Ugraph.Iset.elements l in
      sets (Clique_partition.greedy ~weight g) = sets (Oracles.clique_greedy ~weight g))

(* Common neighbours outrank any weight. With a constant pair weight of
   5,000, merged clusters weigh 10,000 and more, which a score of
   common * 10,000 + weight let beat a pair with more common neighbours:
   that score partitioned this graph as {0,1,3,4} | {2,5}. *)
let weight_never_outranks_common_neighbours () =
  let g =
    Ugraph.of_edges ~vertices:[ 0; 1; 2; 3; 4; 5 ]
      [ (0, 1); (0, 3); (0, 4); (1, 3); (1, 4); (2, 4); (2, 5); (3, 4); (4, 5) ]
  in
  let parts = Clique_partition.greedy ~weight:(fun _ _ -> 5000) g in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "most common neighbours first" [ [ 0; 1; 3 ]; [ 2; 4; 5 ] ]
    (List.sort compare (List.map Ugraph.Iset.elements parts))

(* The library's solution and explored-node count next to the
   oracle's, for one data path and one set of options. *)
let bist_pair ?forbidden ?io_penalty_percent ?transparency dp =
  let sol, t =
    Telemetry.collect (fun () ->
        Allocator.solve ?forbidden ?io_penalty_percent ?transparency dp)
  in
  ( (sol, Telemetry.counter t "bist.embeddings_explored"),
    Oracles.bist_solve ?forbidden ?io_penalty_percent ?transparency dp )

let bist_flows =
  [ Flow.Testable Testable_alloc.default_options; Flow.Traditional ]

(* Every option combination the front ends and reports use, on both
   flows of a random design, with the library's solution and node count
   next to a reference's. *)
let bist_cases ~count name f =
  QCheck.Test.make ~name ~count
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:(5 + Prng.int rng 8) ~inputs:(2 + Prng.int rng 3) in
      List.for_all
        (fun style ->
          let dp =
            (Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy).Flow.datapath
          in
          List.for_all
            (fun forbidden ->
              List.for_all
                (fun io_penalty_percent ->
                  List.for_all
                    (fun transparency -> f dp ~forbidden ~io_penalty_percent ~transparency)
                    [ false; true ])
                [ 100; 150 ])
            [ []; [ Resource.Cbilbo ]; [ Resource.Bilbo; Resource.Cbilbo ] ])
        bist_flows)

(* The bound memo only skips subtrees the oracle searches without
   improving on its best: the same solution wherever the oracle is exact,
   and never more nodes. Where the oracle stops at the cap, the library
   has gone further along the same order: fewer units left untestable
   (the oracle found no feasible leaf and had to drop one, the library
   found one), or the same ones at no higher cost. *)
let no_worse (sol : Allocator.solution) (osol : Allocator.solution) =
  let dropped = List.length sol.untestable and odropped = List.length osol.untestable in
  dropped < odropped
  || (sol.untestable = osol.untestable && sol.delta_gates <= osol.delta_gates)

let prop_bist_matches_oracle =
  bist_cases ~count:30 "indexed BIST search matches the string-keyed oracle"
    (fun dp ~forbidden ~io_penalty_percent ~transparency ->
      let (sol, nodes), (osol, onodes) =
        bist_pair ~forbidden ~io_penalty_percent ~transparency dp
      in
      nodes <= onodes && if osol.Allocator.exact then sol = osol else no_worse sol osol)

(* Exact means the answer of costing every leaf: the greedy warm start
   if no leaf is cheaper, else the first cheapest leaf in search order.
   Designs past 50,000 leaves are left to the oracle property. *)
let prop_bist_matches_exhaustive =
  bist_cases ~count:30 "BIST search matches exhaustive enumeration"
    (fun dp ~forbidden ~io_penalty_percent ~transparency ->
      let leaves =
        List.fold_left
          (fun acc (u : Massign.hw) ->
            match Oracles.embeddings ~transparency dp u.mid with
            | [] -> acc
            | es -> acc * List.length es)
          1 dp.Datapath.massign.Massign.units
      in
      leaves > 50_000
      ||
      let sol = Allocator.solve ~forbidden ~io_penalty_percent ~transparency dp in
      let reference, _ =
        Oracles.bist_exhaustive ~forbidden ~io_penalty_percent ~transparency dp
      in
      sol.Allocator.exact && sol = reference)

(* fir16 is past the node cap: both searches stop at it, the library
   with a solution no worse than the oracle's. *)
let bist_truncated_matches_oracle () =
  let inst = Option.get (B.by_tag "fir16") in
  let dp =
    (Flow.run ~style:(List.hd bist_flows) inst.B.dfg inst.B.massign ~policy:inst.B.policy)
      .Flow.datapath
  in
  let (sol, nodes), (osol, onodes) = bist_pair dp in
  check Alcotest.bool "inexact" false sol.Allocator.exact;
  check Alcotest.bool "oracle inexact" false osol.Allocator.exact;
  check Alcotest.int "nodes explored" onodes nodes;
  check Alcotest.bool "no worse" true (no_worse sol osol)

(* The first [limit] combinations of the units' embedding lists, first
   unit outermost, each listed first unit first. *)
let product_prefix limit lists =
  let out = ref [] and k = ref 0 in
  let exception Full in
  let rec go chosen = function
    | [] ->
      if !k >= limit then raise Full;
      incr k;
      out := List.rev chosen :: !out
    | es :: rest -> List.iter (fun e -> go (e :: chosen) rest) es
  in
  (try go [] lists with Full -> ());
  List.rev !out

type visit = In of int * int | Beyond

(* The factored table against the materialised lists on one data path:
   each unit's counts and predicates (the check facts); [solve]'s
   search order; and [walk]'s first leaves, in the oracle's I-path
   product order, each with the gates and sessions of the oracle's
   solution of it when within the bound and passed over as [beyond]
   past it. *)
let table_agrees ~width ~io_penalty_percent ~transparency dp =
  let table = Ipath.table ~transparency dp in
  let units = dp.Datapath.massign.Massign.units in
  let facts_agree =
    List.for_all
      (fun (u : Massign.hw) ->
        let es = Oracles.embeddings ~transparency dp u.mid in
        let row = Ipath.row table u.mid in
        Ipath.embedding_count row = List.length es
        && Ipath.cbilbo_count row = List.length (List.filter Ipath.requires_cbilbo es)
        && Ipath.embeddable row = (es <> [])
        && Ipath.cbilbo_unavoidable row = Oracles.cbilbo_unavoidable ~transparency dp u.mid)
      units
  in
  let order_agrees =
    Allocator.search_order ~width ~io_penalty_percent ~transparency dp
    = Oracles.bist_search_order ~width ~io_penalty_percent ~transparency dp
  in
  let limit = 600 in
  let lists =
    List.filter_map
      (fun (u : Massign.hw) ->
        if Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid = 0 then None
        else match Oracles.embeddings ~transparency dp u.mid with [] -> None | es -> Some es)
      units
  in
  let solution_of = Allocator.solution_of ~width dp in
  let oracle_leaves =
    List.map
      (fun chosen ->
        let sol = solution_of chosen in
        (sol, List.length (Oracles.session_schedule sol).Session.sessions))
      (product_prefix limit lists)
  in
  let walked bound =
    let visits = ref [] and seen = ref 0 in
    let visit v =
      if !seen < limit then visits := v :: !visits;
      incr seen
    in
    Allocator.walk ~width ~transparency dp ~bound
      ~descend:(fun () -> !seen < limit)
      ~beyond:(fun () -> visit Beyond)
      (fun leaf -> visit (In (Allocator.leaf_gates leaf, Allocator.leaf_sessions leaf)));
    List.rev !visits
  in
  let expected bound =
    List.map
      (fun ((sol : Allocator.solution), sessions) ->
        if sol.delta_gates <= bound then In (sol.delta_gates, sessions) else Beyond)
      oracle_leaves
  in
  let cheapest =
    List.fold_left (fun m ((sol : Allocator.solution), _) -> min m sol.delta_gates) max_int
      oracle_leaves
  in
  facts_agree && order_agrees
  && List.for_all
       (fun bound -> walked bound = expected bound)
       [ max_int; cheapest * 3 / 2 ]

let table_cases = [ (8, 100); (4, 150) ]

let prop_table_matches_lists =
  QCheck.Test.make ~name:"embedding table matches the materialised lists" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = B.random rng ~ops:(5 + Prng.int rng 8) ~inputs:(2 + Prng.int rng 3) in
      List.for_all
        (fun style ->
          let dp =
            (Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy).Flow.datapath
          in
          List.for_all
            (fun (width, io_penalty_percent) ->
              List.for_all
                (fun transparency -> table_agrees ~width ~io_penalty_percent ~transparency dp)
                [ false; true ])
            table_cases)
        bist_flows)

let table_matches_lists_shipped () =
  List.iter
    (fun spec ->
      let inst = Result.get_ok (Bistpath_service.Runner.load_instance (Test_pareto.path spec)) in
      List.iter
        (fun style ->
          let dp =
            (Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy).Flow.datapath
          in
          List.iter
            (fun (width, io_penalty_percent) ->
              List.iter
                (fun transparency ->
                  check Alcotest.bool
                    (Printf.sprintf "%s w%d io%d%s" spec width io_penalty_percent
                       (if transparency then " transparency" else ""))
                    true
                    (table_agrees ~width ~io_penalty_percent ~transparency dp))
                [ false; true ])
            table_cases)
        bist_flows)
    Test_regalloc_trace.(tags @ data)

let suite =
  case "weight never outranks common neighbours" weight_never_outranks_common_neighbours
  :: case "BIST search past the node cap matches the oracle" bist_truncated_matches_oracle
  :: case "embedding table matches the lists on the shipped designs" table_matches_lists_shipped
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_lemma2_matches_oracle; prop_live_counters_match_oracle; prop_sd_matches_oracle;
         prop_peo_matches_oracle; prop_clique_partition_matches_oracle;
         prop_bist_matches_oracle; prop_bist_matches_exhaustive; prop_table_matches_lists ]
