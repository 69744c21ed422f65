(* The incremental algorithms against their list-scan oracles
   (oracles.ml): Lemma-2 verdicts and CBILBO counts, both from
   ~classes and through the live counters the testable allocator keeps;
   sharing degrees from unit masks; the preferred PEO; the
   Tseng-Siewiorek clique partition, including its score rule; and the
   indexed BIST branch-and-bound against the string-keyed one, node
   count included. *)

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
            match Ipath.embeddings ~transparency dp u.mid with
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

let suite =
  case "weight never outranks common neighbours" weight_never_outranks_common_neighbours
  :: case "BIST search past the node cap matches the oracle" bist_truncated_matches_oracle
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_lemma2_matches_oracle; prop_live_counters_match_oracle; prop_sd_matches_oracle;
         prop_peo_matches_oracle; prop_clique_partition_matches_oracle;
         prop_bist_matches_oracle; prop_bist_matches_exhaustive ]
