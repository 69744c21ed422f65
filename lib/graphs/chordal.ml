module Iset = Ugraph.Iset

(* Every kernel below works on vertex indices of the graph's int-indexed
   view, never on labels, and never removes a vertex. *)

(* A binary min-heap of vertex indices ordered by [key], an array the
   caller owns: a vertex's key may be lowered while it waits, and [rise]
   then restores the order. Keys are distinct, so the pops are fully
   determined. *)
module Heap = struct
  type t = { key : int array; heap : int array; at : int array; mutable size : int }

  let create key =
    let n = Array.length key in
    { key; heap = Array.make n 0; at = Array.make n (-1); size = 0 }

  let is_empty h = h.size = 0

  let place h i v =
    h.heap.(i) <- v;
    h.at.(v) <- i

  let rise h v =
    let k = h.key.(v) in
    let i = ref h.at.(v) in
    while !i > 0 && h.key.(h.heap.((!i - 1) / 2)) > k do
      let parent = (!i - 1) / 2 in
      place h !i h.heap.(parent);
      i := parent
    done;
    place h !i v

  let push h v =
    place h h.size v;
    h.size <- h.size + 1;
    rise h v

  let pop h =
    let top = h.heap.(0) in
    h.size <- h.size - 1;
    h.at.(top) <- -1;
    if h.size > 0 then begin
      let v = h.heap.(h.size) in
      let k = h.key.(v) in
      let i = ref 0 and sinking = ref true in
      while !sinking do
        let l = (2 * !i) + 1 in
        let c =
          if l + 1 < h.size && h.key.(h.heap.(l + 1)) < h.key.(h.heap.(l)) then l + 1 else l
        in
        if c < h.size && h.key.(h.heap.(c)) < k then begin
          place h !i h.heap.(c);
          i := c
        end
        else sinking := false
      done;
      place h !i v
    end;
    top
end

(* Maximum cardinality search: repeatedly visit the unvisited vertex with
   the most visited neighbours, the first such vertex in vertex order.
   Reversing the visit order yields a PEO iff the graph is chordal
   (Tarjan & Yannakakis 1984). A vertex's key is i - weight * n, so the
   heap's minimum is the first vertex of maximal weight, and a visit
   lowers each unvisited neighbour's key by n: O((n + m) log n). *)
let mcs (g : Ugraph.t) =
  let n = Array.length g.labels in
  let key = Array.init n Fun.id in
  let heap = Heap.create key in
  for i = 0 to n - 1 do Heap.push heap i done;
  Array.init n (fun _ ->
      let v = Heap.pop heap in
      Array.iter
        (fun u ->
          if heap.at.(u) >= 0 then begin
            key.(u) <- key.(u) - n;
            Heap.rise heap u
          end)
        g.adj.(v);
      v)

let rev a =
  let n = Array.length a in
  Array.init n (fun k -> a.(n - 1 - k))

(* An elimination order of indices with each vertex's position, its
   number of later neighbours and its parent: the earliest later
   neighbour, or -1 if it has none. *)
type elim = { order : int array; pos : int array; later : int array; parent : int array }

let elim (g : Ugraph.t) order =
  let n = Array.length order in
  let pos = Array.make n 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  let later = Array.make n 0 and parent = Array.make n (-1) in
  for v = 0 to n - 1 do
    Array.iter
      (fun u ->
        if pos.(u) > pos.(v) then begin
          later.(v) <- later.(v) + 1;
          if parent.(v) < 0 || pos.(u) < pos.(parent.(v)) then parent.(v) <- u
        end)
      g.adj.(v)
  done;
  { order; pos; later; parent }

(* The order is a PEO iff every vertex's later neighbours other than its
   parent are neighbours of the parent; each parent checks all the
   vertices it was handed against one marking of its neighbours: O(n + m). *)
let perfect (g : Ugraph.t) e =
  let n = Array.length e.order in
  let handed = Array.make n [] in
  for v = 0 to n - 1 do
    let p = e.parent.(v) in
    if p >= 0 then
      Array.iter
        (fun u -> if u <> p && e.pos.(u) > e.pos.(v) then handed.(p) <- u :: handed.(p))
        g.adj.(v)
  done;
  let mark = Array.make n (-1) in
  let rec check p =
    p = n
    || (handed.(p) = []
       || begin
         Array.iter (fun u -> mark.(u) <- p) g.adj.(p);
         List.for_all (fun u -> mark.(u) = p) handed.(p)
       end)
       && check (p + 1)
  in
  check 0

let is_peo (g : Ugraph.t) order =
  let n = Array.length g.labels in
  List.length order = n
  &&
  let seen = Array.make n false in
  let idx =
    List.map
      (fun v ->
        let i = Ugraph.index g v in
        if i < 0 || seen.(i) then -1
        else begin
          seen.(i) <- true;
          i
        end)
      order
  in
  (not (List.mem (-1) idx)) && perfect g (elim g (Array.of_list idx))

let is_chordal g = perfect g (elim g (rev (mcs g)))

(* The reverse MCS order of a chordal graph, checked; [entry] names the
   exported function in the failure. *)
let chordal_elim ~entry g =
  let e = elim g (rev (mcs g)) in
  if not (perfect g e) then failwith (entry ^ ": graph is not chordal");
  e

(* Ranks every vertex once by (key, vertex), then eliminates the
   lowest-ranked simplicial vertex. Removing a vertex only shrinks its
   neighbours' neighbourhoods, so a simplicial vertex stays simplicial.
   Each vertex counts the non-adjacent pairs among its live neighbours
   and is simplicial when the count is 0. Removing p takes from each
   live neighbour q the pairs {p, r} with r a live neighbour of q outside
   N(p), counted on bitset rows from which every removed vertex is
   cleared. The ready vertices wait in a heap of ranks. O(m n / 32 +
   n log n) after the sort by key. *)
let peo_with_preference (g : Ugraph.t) ~key =
  let n = Array.length g.labels in
  let keys = Array.map key g.labels in
  let by_rank = Array.init n Fun.id in
  Array.stable_sort
    (fun p q ->
      let c = compare keys.(p) keys.(q) in
      if c <> 0 then c else Int.compare p q)
    by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r p -> rank.(p) <- r) by_rank;
  let rows = Bitrows.of_adjacency g.adj in
  let degree = Array.map Array.length g.adj in
  let missing =
    Array.init n (fun q ->
        let d = degree.(q) in
        let inner = Array.fold_left (fun k r -> k + Bitrows.common rows q r) 0 g.adj.(q) / 2 in
        (d * (d - 1) / 2) - inner)
  in
  let alive = Array.make n true in
  let ready = Heap.create rank in
  Array.iteri (fun q m -> if m = 0 then Heap.push ready q) missing;
  let rec go acc k =
    if k = n then List.rev acc
    else if Heap.is_empty ready then failwith "Chordal.peo_with_preference: graph is not chordal"
    else begin
      let p = Heap.pop ready in
      alive.(p) <- false;
      Array.iter
        (fun q ->
          if alive.(q) then begin
            Bitrows.remove rows q p;
            if missing.(q) > 0 then begin
              missing.(q) <- missing.(q) - (degree.(q) - 1 - Bitrows.common rows q p);
              if missing.(q) = 0 then Heap.push ready q
            end;
            degree.(q) <- degree.(q) - 1
          end)
        g.adj.(p);
      go (g.labels.(p) :: acc) (k + 1)
    end
  in
  go [] 0

(* Along a PEO the candidate cliques are C(v) = {v} + later neighbours
   of v. Every clique lies in some C(v), so a vertex's largest clique is
   the largest C(v) containing it. *)
let max_clique_size_per_vertex (g : Ugraph.t) =
  let e = chordal_elim ~entry:"Chordal.max_clique_size_per_vertex" g in
  let best = Array.make (Array.length e.order) 1 in
  Array.iteri
    (fun v row ->
      let size = e.later.(v) + 1 in
      best.(v) <- max best.(v) size;
      Array.iter (fun u -> if e.pos.(u) > e.pos.(v) then best.(u) <- max best.(u) size) row)
    g.adj;
  List.init (Array.length best) (fun i -> (g.labels.(i), best.(i)))

let clique_number g =
  Array.fold_left (fun acc l -> max acc (l + 1)) 0
    (chordal_elim ~entry:"Chordal.clique_number" g).later
