(* Tests for Bistpath_graphs: undirected graphs, chordal machinery,
   clique partitioning, and the first-fit coloring of graph_ops.ml.
   Property tests use random interval graphs (always chordal, perfect) as the generator; the last ones
   compare each int-indexed kernel with its set-based reference in
   oracles.ml on interval, chordal and arbitrary graphs. *)

module Ugraph = Graph_ops.Ugraph
module Chordal = Bistpath_graphs.Chordal
module Coloring = Graph_ops.Coloring
module Interval = Graph_ops.Interval
module Clique_partition = Bistpath_graphs.Clique_partition
module Prng = Prng_ext
module Listx = Bistpath_util.Listx

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let c4 = Ugraph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0) ] (* chordless cycle *)

let triangle = Ugraph.of_edges [ (0, 1); (1, 2); (0, 2) ]

let path3 = Ugraph.of_edges [ (0, 1); (1, 2) ]

let random_interval_graph seed n =
  let rng = Prng.create seed in
  Interval.graph (Interval.random rng ~n ~horizon:(max 2 (n / 2)))

(* --- Ugraph ------------------------------------------------------- *)

let ugraph_basics () =
  let g = Ugraph.of_edges ~vertices:[ 7 ] [ (1, 2); (2, 3) ] in
  check (Alcotest.list Alcotest.int) "vertices sorted" [ 1; 2; 3; 7 ] (Ugraph.vertices g);
  check Alcotest.int "edges" 2 (Ugraph.num_edges g);
  check Alcotest.bool "mem_edge symmetric" true
    (Ugraph.mem_edge g 1 2 && Ugraph.mem_edge g 2 1);
  check Alcotest.bool "no edge" false (Ugraph.mem_edge g 1 3);
  check Alcotest.int "degree" 2 (Ugraph.degree g 2);
  check Alcotest.int "isolated degree" 0 (Ugraph.degree g 7)

let ugraph_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Ugraph.of_edges: self-loop")
    (fun () -> ignore (Ugraph.add_edge Ugraph.empty 1 1))

let ugraph_remove () =
  let g = Ugraph.remove_vertex triangle 0 in
  check (Alcotest.list Alcotest.int) "vertices" [ 1; 2 ] (Ugraph.vertices g);
  check Alcotest.int "edges" 1 (Ugraph.num_edges g)

let ugraph_induced () =
  let g = Ugraph.induced triangle (Ugraph.Iset.of_list [ 0; 1 ]) in
  check Alcotest.int "edges" 1 (Ugraph.num_edges g);
  check Alcotest.int "vertices" 2 (Ugraph.num_vertices g)

let ugraph_complement () =
  let g = Ugraph.complement path3 in
  check Alcotest.bool "0-2 present" true (Ugraph.mem_edge g 0 2);
  check Alcotest.bool "0-1 absent" false (Ugraph.mem_edge g 0 1);
  check Alcotest.int "edges" 1 (Ugraph.num_edges g)

let ugraph_clique_tests () =
  check Alcotest.bool "triangle is clique" true
    (Ugraph.is_clique triangle (Ugraph.Iset.of_list [ 0; 1; 2 ]));
  check Alcotest.bool "path not clique" false
    (Ugraph.is_clique path3 (Ugraph.Iset.of_list [ 0; 1; 2 ]));
  check Alcotest.bool "middle of path not simplicial" false (Ugraph.is_simplicial path3 1);
  check Alcotest.bool "end of path simplicial" true (Ugraph.is_simplicial path3 0)

(* --- Chordal ------------------------------------------------------ *)

let chordality_known () =
  check Alcotest.bool "triangle chordal" true (Chordal.is_chordal triangle);
  check Alcotest.bool "path chordal" true (Chordal.is_chordal path3);
  check Alcotest.bool "C4 not chordal" false (Chordal.is_chordal c4);
  check Alcotest.bool "empty chordal" true (Chordal.is_chordal Ugraph.empty)

let is_peo_checks () =
  check Alcotest.bool "valid peo of path" true (Chordal.is_peo path3 [ 0; 1; 2 ]);
  check Alcotest.bool "invalid order" false (Chordal.is_peo path3 [ 1; 0; 2 ]);
  check Alcotest.bool "missing vertex" false (Chordal.is_peo path3 [ 0; 1 ])

let peo_preference_respected () =
  (* path 0-1-2: both 0 and 2 simplicial; preference by descending id
     should eliminate 2 first. *)
  let peo = Chordal.peo_with_preference path3 ~key:(fun v -> -v) in
  check (Alcotest.list Alcotest.int) "highest id first" [ 2; 1; 0 ] peo

let peo_nonchordal_fails () =
  Alcotest.check_raises "C4 has no simplicial vertex"
    (Failure "Chordal.peo_with_preference: graph is not chordal") (fun () ->
      ignore (Chordal.peo_with_preference c4 ~key:Fun.id))

let maximal_cliques_triangle () =
  let cliques = Oracles.maximal_cliques triangle in
  check Alcotest.int "one clique" 1 (List.length cliques);
  check Alcotest.int "size 3" 3 (Ugraph.Iset.cardinal (List.hd cliques))

let maximal_cliques_path () =
  let cliques = Oracles.maximal_cliques path3 in
  check Alcotest.int "two cliques" 2 (List.length cliques)

let mcs_per_vertex () =
  let g = Ugraph.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let mcs = Chordal.max_clique_size_per_vertex g in
  check (Alcotest.option Alcotest.int) "triangle member" (Some 3) (List.assoc_opt 0 mcs);
  check (Alcotest.option Alcotest.int) "pendant" (Some 2) (List.assoc_opt 3 mcs)

let clique_number_known () =
  check Alcotest.int "triangle" 3 (Chordal.clique_number triangle);
  check Alcotest.int "path" 2 (Chordal.clique_number path3);
  check Alcotest.int "empty" 0 (Chordal.clique_number Ugraph.empty)

(* Properties over random interval graphs. *)

let prop_interval_chordal =
  QCheck.Test.make ~name:"interval graphs are chordal" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 25))
    (fun (seed, n) -> Chordal.is_chordal (random_interval_graph seed n))

let prop_mcs_order_is_reverse_peo =
  QCheck.Test.make ~name:"reversed MCS order is a PEO on interval graphs" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 25))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      Chordal.is_peo g (List.rev (Oracles.mcs_order g)))

let prop_peo_preference_valid =
  QCheck.Test.make ~name:"preference-driven PVES is a valid PEO" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 25))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      Chordal.is_peo g (Chordal.peo_with_preference g ~key:Fun.id))

let prop_cliques_are_maximal_cliques =
  QCheck.Test.make ~name:"maximal_cliques returns maximal cliques" ~count:60
    QCheck.(pair (int_bound 1000) (int_range 1 15))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      let cliques = Oracles.maximal_cliques g in
      List.for_all
        (fun c ->
          Ugraph.is_clique g c
          && List.for_all
               (fun v ->
                 Ugraph.Iset.mem v c
                 || not
                      (Ugraph.Iset.for_all (fun u -> Ugraph.mem_edge g u v) c))
               (Ugraph.vertices g))
        cliques)

let prop_every_vertex_in_some_clique =
  QCheck.Test.make ~name:"every vertex appears in a maximal clique" ~count:60
    QCheck.(pair (int_bound 1000) (int_range 1 15))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      let cliques = Oracles.maximal_cliques g in
      List.for_all
        (fun v -> List.exists (fun c -> Ugraph.Iset.mem v c) cliques)
        (Ugraph.vertices g))

(* --- Coloring ----------------------------------------------------- *)

let prop_first_fit_proper =
  QCheck.Test.make ~name:"first-fit coloring is proper" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 25))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      Coloring.is_proper g (Coloring.first_fit g (Ugraph.vertices g)))

let prop_reverse_peo_coloring_minimum =
  QCheck.Test.make ~name:"reverse-PEO first-fit is a minimum coloring" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 20))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      let order = List.rev (Chordal.peo_with_preference g ~key:Fun.id) in
      let coloring = Coloring.first_fit g order in
      Coloring.is_proper g coloring
      && Coloring.num_colors coloring = Chordal.clique_number g)

let count_colorings_known () =
  (* path 0-1-2 with 2 colors: 0 and 2 must share, 1 differs: 1 partition *)
  check Alcotest.int "path with 2" 1 (Coloring.count_colorings path3 2);
  (* triangle needs exactly 3 *)
  check Alcotest.int "triangle with 2" 0 (Coloring.count_colorings triangle 2);
  check Alcotest.int "triangle with 3" 1 (Coloring.count_colorings triangle 3);
  (* 3 isolated vertices into exactly 2 blocks: S(3,2) = 3 *)
  let iso = Ugraph.of_edges ~vertices:[ 0; 1; 2 ] [] in
  check Alcotest.int "stirling(3,2)" 3 (Coloring.count_colorings iso 2)

let chromatic_exact_known () =
  check Alcotest.int "triangle" 3 (Coloring.chromatic_number_exact triangle);
  check Alcotest.int "C4" 2 (Coloring.chromatic_number_exact c4);
  check Alcotest.int "path" 2 (Coloring.chromatic_number_exact path3)

let classes_roundtrip () =
  let coloring = [ (0, 1); (1, 0); (2, 1) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int)))
    "classes" [ (0, [ 1 ]); (1, [ 0; 2 ]) ] (Coloring.classes coloring)

(* --- Clique partition --------------------------------------------- *)

let prop_greedy_partition_valid =
  QCheck.Test.make ~name:"greedy clique partition is a partition into cliques"
    ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 18))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      Oracles.is_clique_partition g (Clique_partition.greedy g))

let prop_exact_min_not_worse =
  QCheck.Test.make ~name:"exact clique partition <= greedy" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 1 10))
    (fun (seed, n) ->
      let g = random_interval_graph seed n in
      let exact = Oracles.exact_clique_partition g in
      Oracles.is_clique_partition g exact
      && List.length exact <= List.length (Clique_partition.greedy g))

(* --- The int-indexed kernels against their set-based oracles --------- *)

(* A random graph on sparse, possibly negative labels listed out of
   order, with isolated vertices and sometimes no vertex at all: an
   interval graph, a random chordal graph (each vertex joins a random
   subset of a clique made so far, so it is simplicial when added) or an
   arbitrary one, which is usually not chordal. *)
let random_graph seed =
  let rng = Prng.create seed in
  let n = Prng.int rng 22 in
  let base = Prng.int rng 41 - 20 and stride = 1 + Prng.int rng 4 in
  let label i = base + (stride * i) in
  let edges =
    match Prng.int rng 3 with
    | 0 ->
      Interval.random rng ~n ~horizon:(1 + Prng.int rng (max 1 n))
      |> Interval.graph |> Ugraph.edges
      |> List.map (fun (u, v) -> (label u, label v))
    | 1 ->
      let cliques = ref [ [] ] and edges = ref [] in
      for v = 0 to n - 1 do
        let joined = List.filter (fun _ -> Prng.bool rng) (Prng.pick rng !cliques) in
        edges := List.map (fun u -> (label u, label v)) joined @ !edges;
        cliques := (v :: joined) :: !cliques
      done;
      !edges
    | _ ->
      let density = Prng.int rng 100 in
      List.concat_map
        (fun u ->
          List.filter_map
            (fun v -> if u < v && Prng.int rng 100 < density then Some (label u, label v) else None)
            (List.init n Fun.id))
        (List.init n Fun.id)
  in
  let vertices = Array.init n label in
  Prng.shuffle rng vertices;
  (rng, Ugraph.of_edges ~vertices:(Array.to_list vertices) edges)

let outcome f = match f () with v -> Ok v | exception Failure m -> Error m

let seeds = QCheck.int_bound 1_000_000

let prop_chordal_kernels_match_oracle =
  QCheck.Test.make ~name:"chordal kernels match the set-based oracles" ~count:400 seeds
    (fun seed ->
      let rng, g = random_graph seed in
      let shuffled = Array.of_list (Ugraph.vertices g) in
      Prng.shuffle rng shuffled;
      let orders =
        let vs = Ugraph.vertices g in
        [ List.rev (Oracles.mcs_order g);
          Array.to_list shuffled;
          List.tl (vs @ [ 0 ]);
          vs @ [ 1000 ];
          List.map (fun v -> if v = 0 then 1000 else v) vs;
          (match vs with v :: _ :: rest -> v :: v :: rest | l -> l) ]
      in
      Chordal.is_chordal g = Oracles.is_chordal g
      && List.for_all (fun o -> Chordal.is_peo g o = Oracles.is_peo g o) orders
      && outcome (fun () -> Chordal.clique_number g) = outcome (fun () -> Oracles.clique_number g)
      && outcome (fun () -> Chordal.max_clique_size_per_vertex g)
         = outcome (fun () -> Oracles.max_clique_size_per_vertex g))

(* Keys from a small range tie often; a non-chordal graph must fail the
   same way. *)
let prop_preferred_peo_matches_oracle =
  QCheck.Test.make ~name:"preferred PEO matches the oracle, failure included" ~count:400 seeds
    (fun seed ->
      let rng, g = random_graph seed in
      let keys = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace keys v (Prng.int rng 4)) (Ugraph.vertices g);
      let key v = Hashtbl.find keys v in
      outcome (fun () -> Chordal.peo_with_preference g ~key)
      = outcome (fun () ->
            Oracles.peo_with_preference g ~prefer:(fun u v -> compare (key u) (key v))))

let prop_weighted_greedy_matches_oracle =
  QCheck.Test.make ~name:"weighted greedy clique partition matches the oracle" ~count:300 seeds
    (fun seed ->
      let rng, g = random_graph seed in
      let w = Hashtbl.create 64 in
      let weight u v =
        match Hashtbl.find_opt w (u, v) with
        | Some x -> x
        | None ->
          let x = 1 + Prng.int rng 5 in
          Hashtbl.replace w (u, v) x;
          x
      in
      let sets l = List.map Ugraph.Iset.elements l in
      sets (Clique_partition.greedy ~weight g) = sets (Oracles.clique_greedy ~weight g))

(* Spans on sparse labels, some empty or repeated, in random order. *)
let prop_interval_graph_matches_oracle =
  QCheck.Test.make ~name:"sweep interval graph matches the pairwise build" ~count:400 seeds
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 25 in
      let spans =
        List.map
          (fun (v, (s : Interval.span)) ->
            let v = if Prng.int rng 40 = 0 then 0 else (3 * v) - 7 in
            let death = if Prng.int rng 40 = 0 then s.birth else s.death in
            (v, { s with death }))
          (Interval.random rng ~n ~horizon:(1 + Prng.int rng 12))
      in
      let shuffled = Array.of_list spans in
      Prng.shuffle rng shuffled;
      let spans = Array.to_list shuffled in
      let build f =
        match f spans with
        | g -> Ok (Ugraph.vertices g, Ugraph.edges g)
        | exception Invalid_argument m -> Error m
      in
      build Interval.graph = build Oracles.interval_graph)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "ugraph basics" ugraph_basics;
    case "ugraph self loop rejected" ugraph_self_loop;
    case "ugraph remove vertex" ugraph_remove;
    case "ugraph induced" ugraph_induced;
    case "ugraph complement" ugraph_complement;
    case "cliques and simplicial" ugraph_clique_tests;
    case "chordality of known graphs" chordality_known;
    case "is_peo checks" is_peo_checks;
    case "peo preference respected" peo_preference_respected;
    case "peo fails on non-chordal" peo_nonchordal_fails;
    case "maximal cliques of triangle" maximal_cliques_triangle;
    case "maximal cliques of path" maximal_cliques_path;
    case "mcs per vertex" mcs_per_vertex;
    case "clique numbers" clique_number_known;
    case "count_colorings known values" count_colorings_known;
    case "chromatic_number_exact known" chromatic_exact_known;
    case "coloring classes" classes_roundtrip;
  ]
  @ qcheck
      [
        prop_interval_chordal;
        prop_mcs_order_is_reverse_peo;
        prop_peo_preference_valid;
        prop_cliques_are_maximal_cliques;
        prop_every_vertex_in_some_clique;
        prop_first_fit_proper;
        prop_reverse_peo_coloring_minimum;
        prop_greedy_partition_valid;
        prop_exact_min_not_worse;
        prop_chordal_kernels_match_oracle;
        prop_preferred_peo_matches_oracle;
        prop_weighted_greedy_matches_oracle;
        prop_interval_graph_matches_oracle;
      ]
