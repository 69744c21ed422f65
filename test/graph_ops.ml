(* Graph operations only the tests use. The library builds each graph
   once with [Ugraph.of_edges] (or [Interval.graph]) and colours through
   the register allocators, so the persistent edits, the clique and
   degree queries, the vertex and edge lists, random span sets and first-fit colouring with its
   exhaustive counters live here, over the library's public view. Each
   module includes the library module it extends, so a test aliases
   [Graph_ops.Ugraph] where it used [Bistpath_graphs.Ugraph]. *)

module Ugraph = struct
  include Bistpath_graphs.Ugraph

  (* Sorted. *)
  let vertices t = Array.to_list t.labels

  let num_vertices t = Array.length t.labels

  (* Each edge once, as [(u, v)] with [u < v], sorted. *)
  let edges t =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j > i then Some (t.labels.(i), t.labels.(j)) else None)
          (Array.to_list t.adj.(i)))
      (List.init (Array.length t.adj) Fun.id)

  let empty = of_edges []

  (* Adds both endpoints as needed; raises [Invalid_argument] on a
     self-loop. Idempotent. *)
  let add_edge t u v = of_edges ~vertices:(vertices t) ((u, v) :: edges t)

  let num_edges t = List.length (edges t)

  (* Symmetric; false if either endpoint is absent. *)
  let mem_edge t u v = Iset.mem v (neighbors t u)

  let degree t v = Iset.cardinal (neighbors t v)

  (* The subgraph induced by the given vertex set. *)
  let induced t keep =
    of_edges
      ~vertices:(List.filter (fun v -> Iset.mem v keep) (vertices t))
      (List.filter (fun (u, v) -> Iset.mem u keep && Iset.mem v keep) (edges t))

  (* Removes the vertex and all incident edges. *)
  let remove_vertex t v = induced t (Iset.remove v (Iset.of_list (vertices t)))

  (* Do the given vertices induce a complete subgraph? *)
  let is_clique t set =
    Iset.for_all (fun u -> Iset.for_all (fun v -> u = v || mem_edge t u v) set) set

  (* Is the neighbourhood of the vertex a clique? *)
  let is_simplicial t v = is_clique t (neighbors t v)
end

module Interval = struct
  include Bistpath_graphs.Interval

  (* [n] random spans with endpoints within [0, horizon]; interval
     graphs are closed under this construction, so PEO and
     minimum-colouring invariants must hold on every output. *)
  let random rng ~n ~horizon =
    List.map
      (fun i ->
        let birth = Bistpath_util.Prng.int rng horizon in
        let len = 1 + Bistpath_util.Prng.int rng (max 1 (horizon - birth)) in
        (i, { birth; death = birth + len }))
      (Bistpath_util.Listx.range 0 n)
end

(* Graph colouring as register allocation sees it: colours are register
   indices, an edge is a lifetime conflict. A colouring is an
   association list vertex -> colour, colours dense from 0. *)
module Coloring = struct
  module Iset = Ugraph.Iset

  type t = (int * int) list

  (* Greedy colouring following the given vertex order (every vertex
     exactly once); each vertex gets the smallest colour absent from its
     already-coloured neighbours. On a chordal graph with a reverse PEO
     this is a minimum colouring. *)
  let first_fit g order =
    let color = Hashtbl.create 16 in
    List.iter
      (fun v ->
        let used =
          Iset.fold
            (fun u acc ->
              match Hashtbl.find_opt color u with
              | Some c -> Iset.add c acc
              | None -> acc)
            (Ugraph.neighbors g v) Iset.empty
        in
        let rec smallest c = if Iset.mem c used then smallest (c + 1) else c in
        Hashtbl.replace color v (smallest 0))
      order;
    List.map (fun v -> (v, Hashtbl.find color v)) (Ugraph.vertices g)

  (* Every vertex coloured, endpoints of every edge differ. *)
  let is_proper g t =
    let color v = List.assoc_opt v t in
    List.for_all (fun v -> color v <> None) (Ugraph.vertices g)
    && List.for_all (fun (u, v) -> color u <> color v) (Ugraph.edges g)

  let num_colors t = List.length (List.sort_uniq compare (List.map snd t))

  (* Colour -> members, sorted by colour, members sorted. *)
  let classes t =
    Bistpath_util.Listx.group_by snd t
    |> List.map (fun (c, members) -> (c, List.sort compare (List.map fst members)))

  (* The number of partitions of the vertices into exactly [k] non-empty
     independent sets (register assignments using all [k] registers,
     registers unlabelled), by canonical backtracking: vertex i may open
     block j only if blocks 0..j-1 are already open, so each partition
     is counted once. Exponential. *)
  let count_colorings g k =
    let vs = Array.of_list (Ugraph.vertices g) in
    let n = Array.length vs in
    let blocks = Array.make k Iset.empty in
    let conflicts v block = Iset.exists (fun u -> Iset.mem u block) (Ugraph.neighbors g v) in
    let rec go i opened =
      if i = n then if opened = k then 1 else 0
      else begin
        let v = vs.(i) in
        let total = ref 0 in
        for b = 0 to opened - 1 do
          if not (conflicts v blocks.(b)) then begin
            blocks.(b) <- Iset.add v blocks.(b);
            total := !total + go (i + 1) opened;
            blocks.(b) <- Iset.remove v blocks.(b)
          end
        done;
        if opened < k then begin
          blocks.(opened) <- Iset.singleton v;
          total := !total + go (i + 1) (opened + 1);
          blocks.(opened) <- Iset.empty
        end;
        !total
      end
    in
    if k <= 0 then (if n = 0 then 1 else 0) else go 0 0

  (* Smallest [k] with [count_colorings g k > 0]. Exponential. *)
  let chromatic_number_exact g =
    let n = Ugraph.num_vertices g in
    let rec go k = if k > n then n else if count_colorings g k > 0 then k else go (k + 1) in
    if n = 0 then 0 else go 1
end
