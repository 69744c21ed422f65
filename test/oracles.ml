(* List-scan reference implementations of the algorithms the library
   runs incrementally over the indexed [Sharing] view: the Lemma-2
   verdict and its greedy CBILBO cover, sharing degrees, the preferred
   perfect elimination ordering and the Tseng-Siewiorek clique
   partition. Each one recomputes everything from plain sets at every
   step, straight from the definitions; the properties in
   test_incremental.ml compare the library against them. *)

module Dfg = Bistpath_dfg.Dfg
module Massign = Bistpath_dfg.Massign
module Sset = Bistpath_dfg.Dfg.Sset
module Ugraph = Bistpath_graphs.Ugraph
module Iset = Ugraph.Iset
module Listx = Bistpath_util.Listx

(* Modules with at least one instance, sorted. *)
let units dfg massign =
  massign.Massign.units
  |> List.filter_map (fun (u : Massign.hw) ->
         if Massign.temporal_multiplicity massign dfg u.mid > 0 then Some u.mid else None)
  |> List.sort compare

let sd_vars dfg massign vars =
  let vs = Sset.of_list vars in
  let hits set_of =
    List.length
      (List.filter
         (fun m -> not (Sset.is_empty (Sset.inter vs (set_of massign dfg m))))
         (units dfg massign))
  in
  hits Massign.input_variable_set + hits Massign.output_variable_set

(* Lemma 2 by set equalities: (registers of case i, register pairs of
   case ii), in class order and [Listx.pairs] order. *)
let check_module dfg massign ~mid ~classes =
  let out =
    if List.mem mid (units dfg massign) then Massign.output_variable_set massign dfg mid
    else Sset.empty
  in
  let instance_ops = Massign.instance_operands massign dfg mid in
  let covers vars =
    let vs = Sset.of_list vars in
    instance_ops <> []
    && List.for_all (fun ij -> not (Sset.is_empty (Sset.inter vs ij))) instance_ops
  in
  let out_part vars = Sset.inter (Sset.of_list vars) out in
  let case_i =
    List.filter_map
      (fun (rid, vars) ->
        if (not (Sset.is_empty out)) && Sset.equal (out_part vars) out && covers vars
        then Some rid
        else None)
      classes
  in
  let case_ii =
    Listx.pairs classes
    |> List.filter_map (fun ((rx, vx), (ry, vy)) ->
           let ox = out_part vx and oy = out_part vy in
           if
             (not (Sset.is_empty ox))
             && (not (Sset.is_empty oy))
             && (not (Sset.equal ox out))
             && (not (Sset.equal oy out))
             && Sset.equal (Sset.union ox oy) out
             && covers vx && covers vy
           then Some (rx, ry)
           else None)
  in
  (case_i, case_ii)

let min_cbilbo_count dfg massign ~classes =
  let offers =
    units dfg massign
    |> List.filter_map (fun mid ->
           match check_module dfg massign ~mid ~classes with
           | [], [] -> None
           | ci, cii ->
             Some (List.sort_uniq compare (ci @ List.concat_map (fun (x, y) -> [ x; y ]) cii)))
  in
  let rec cover count = function
    | [] -> count
    | remaining ->
      let candidates = List.sort_uniq compare (List.concat remaining) in
      let gain r = List.length (List.filter (List.mem r) remaining) in
      let best = Option.get (Listx.max_by gain candidates) in
      cover (count + 1) (List.filter (fun offer -> not (List.mem best offer)) remaining)
  in
  cover 0 offers

(* Eliminate, at every step, the preferred vertex among all currently
   simplicial ones, rechecking every vertex. *)
let peo_with_preference g ~prefer =
  let compare_pref u v =
    let c = prefer u v in
    if c <> 0 then c else compare u v
  in
  let rec go g acc =
    if Ugraph.num_vertices g = 0 then List.rev acc
    else
      match List.sort compare_pref (List.filter (Ugraph.is_simplicial g) (Ugraph.vertices g)) with
      | [] -> failwith "Chordal.peo_with_preference: graph is not chordal"
      | v :: _ -> go (Ugraph.remove_vertex g v) (v :: acc)
  in
  go g []

(* Rescore every mergeable cluster pair against every cluster on every
   merge: most common neighbours first, then the larger summed weight,
   then the first pair in [Listx.pairs] order. *)
let clique_greedy ?(weight = fun _ _ -> 0) g =
  let can_merge a b =
    Iset.for_all (fun u -> Iset.for_all (fun v -> Ugraph.mem_edge g u v) b) a
  in
  let cluster_weight a b =
    Iset.fold (fun u acc -> Iset.fold (fun v acc -> acc + weight u v) b acc) a 0
  in
  let rec go clusters =
    match List.filter (fun (a, b) -> can_merge a b) (Listx.pairs clusters) with
    | [] -> clusters
    | mergeable ->
      let common (a, b) =
        let merged = Iset.union a b in
        List.length
          (List.filter
             (fun c -> (not (Iset.equal c a)) && (not (Iset.equal c b)) && can_merge merged c)
             clusters)
      in
      let score p = (common p, cluster_weight (fst p) (snd p)) in
      let a, b =
        List.fold_left
          (fun (best, s) p ->
            let sp = score p in
            if compare sp s > 0 then (p, sp) else (best, s))
          (List.hd mergeable, score (List.hd mergeable))
          (List.tl mergeable)
        |> fst
      in
      go
        (Iset.union a b
        :: List.filter (fun c -> not (Iset.equal c a || Iset.equal c b)) clusters)
  in
  go (List.map Iset.singleton (Ugraph.vertices g))
