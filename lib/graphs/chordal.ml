module Iset = Ugraph.Iset

let is_peo g order =
  let all = Iset.of_list (Ugraph.vertices g) in
  let listed = Iset.of_list order in
  Iset.equal all listed
  && List.length order = Iset.cardinal all
  &&
  let rec go g = function
    | [] -> true
    | v :: rest -> Ugraph.is_simplicial g v && go (Ugraph.remove_vertex g v) rest
  in
  go g order

(* Maximum cardinality search: repeatedly visit the unvisited vertex with
   the most visited neighbors. Reversing the visit order yields a PEO iff
   the graph is chordal (Tarjan & Yannakakis 1984). *)
let mcs_order g =
  let vs = Ugraph.vertices g in
  let weight = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace weight v 0) vs;
  let visited = Hashtbl.create 16 in
  let rec go acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let best = ref None in
      List.iter
        (fun v ->
          if not (Hashtbl.mem visited v) then
            let w = Hashtbl.find weight v in
            match !best with
            | Some (_, bw) when bw >= w -> ()
            | _ -> best := Some (v, w))
        vs;
      match !best with
      | None -> List.rev acc
      | Some (v, _) ->
        Hashtbl.replace visited v ();
        Iset.iter
          (fun u ->
            if not (Hashtbl.mem visited u) then
              Hashtbl.replace weight u (Hashtbl.find weight u + 1))
          (Ugraph.neighbors g v);
        go (v :: acc) (remaining - 1)
    end
  in
  go [] (List.length vs)

let is_chordal g = is_peo g (List.rev (mcs_order g))

(* Ranks every vertex once by (key, vertex), then eliminates the
   lowest-ranked simplicial vertex. Removing a vertex only shrinks its
   neighbours' neighbourhoods, so a simplicial vertex stays simplicial and
   only the neighbours of the removed vertex need a recheck. *)
let peo_with_preference g ~key =
  let vs = Array.of_list (Ugraph.vertices g) in
  let n = Array.length vs in
  let pos = Hashtbl.create n in
  Array.iteri (fun p v -> Hashtbl.replace pos v p) vs;
  let by_rank = Array.init n Fun.id in
  let keys = Array.map key vs in
  Array.stable_sort (fun p q -> compare (keys.(p), vs.(p)) (keys.(q), vs.(q))) by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r p -> rank.(p) <- r) by_rank;
  let nbrs =
    Array.map
      (fun v ->
        Array.of_list (List.map (Hashtbl.find pos) (Iset.elements (Ugraph.neighbors g v))))
      vs
  in
  let adj = Array.init n (fun _ -> Bytes.make n '\000') in
  Array.iteri (fun p ns -> Array.iter (fun q -> Bytes.set adj.(p) q '\001') ns) nbrs;
  let alive = Array.make n true and simplicial = Array.make n false in
  let is_simplicial p =
    let live = List.filter (fun q -> alive.(q)) (Array.to_list nbrs.(p)) in
    let rec clique = function
      | [] -> true
      | q :: rest -> List.for_all (fun q' -> Bytes.get adj.(q) q' <> '\000') rest && clique rest
    in
    clique live
  in
  let ready = ref Iset.empty in
  let recheck p =
    if (not simplicial.(p)) && is_simplicial p then begin
      simplicial.(p) <- true;
      ready := Iset.add rank.(p) !ready
    end
  in
  for p = 0 to n - 1 do recheck p done;
  let rec go acc =
    match Iset.min_elt_opt !ready with
    | None when List.length acc = n -> List.rev acc
    | None -> failwith "Chordal.peo_with_preference: graph is not chordal"
    | Some r ->
      let p = by_rank.(r) in
      ready := Iset.remove r !ready;
      alive.(p) <- false;
      Array.iter (fun q -> if alive.(q) then recheck q) nbrs.(p);
      go (vs.(p) :: acc)
  in
  go []

(* Along a PEO, the candidate maximal cliques are {v} + later neighbors of
   v. A candidate is maximal unless it is contained in the candidate of an
   earlier vertex (standard chordal clique enumeration). *)
let maximal_cliques g =
  let peo = List.rev (mcs_order g) in
  if not (is_peo g peo) then failwith "Chordal.maximal_cliques: graph is not chordal";
  let position = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace position v i) peo;
  let later_clique v =
    let pv = Hashtbl.find position v in
    let later =
      Iset.filter (fun u -> Hashtbl.find position u > pv) (Ugraph.neighbors g v)
    in
    Iset.add v later
  in
  let candidates = List.map later_clique peo in
  List.filter
    (fun c ->
      not (List.exists (fun c' -> (not (Iset.equal c c')) && Iset.subset c c') candidates))
    candidates
  |> List.sort_uniq (fun a b -> compare (Iset.elements a) (Iset.elements b))

let max_clique_size_per_vertex g =
  let cliques = maximal_cliques g in
  List.map
    (fun v ->
      let best =
        List.fold_left
          (fun acc c -> if Iset.mem v c then max acc (Iset.cardinal c) else acc)
          1 cliques
      in
      (v, if Ugraph.mem_vertex g v then best else 0))
    (Ugraph.vertices g)

let clique_number g =
  List.fold_left (fun acc c -> max acc (Iset.cardinal c)) 0 (maximal_cliques g)
