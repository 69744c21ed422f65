module Iset = Set.Make (Int)

type t = { labels : int array; adj : int array array }

let index t v =
  let l = t.labels in
  let n = Array.length l in
  if v >= 0 && v < n && l.(v) = v then v
  else
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let x = l.(mid) in
        if x = v then mid else if x < v then search (mid + 1) hi else search lo mid
    in
    search 0 n

(* Drops repeated entries from a sorted array. *)
let unique a =
  let k = ref 0 in
  Array.iteri
    (fun i x ->
      if i = 0 || x <> a.(!k - 1) then begin
        a.(!k) <- x;
        incr k
      end)
    a;
  if !k = Array.length a then a else Array.sub a 0 !k

let sorted_unique l =
  let a = Array.of_list l in
  Array.stable_sort Int.compare a;
  unique a

(* The transpose of symmetric rows: i goes into row j for each j in row
   i, for i ascending, so every row comes out sorted. *)
let transpose rows =
  let adj = Array.map (fun r -> Array.make (Array.length r) 0) rows in
  let next = Array.make (Array.length rows) 0 in
  Array.iteri
    (fun i r ->
      Array.iter
        (fun j ->
          adj.(j).(next.(j)) <- i;
          next.(j) <- next.(j) + 1)
        r)
    rows;
  adj

let of_edges ?(vertices = []) edges =
  List.iter (fun (u, v) -> if u = v then invalid_arg "Ugraph.of_edges: self-loop") edges;
  let t = { labels = sorted_unique vertices; adj = [||] } in
  let t =
    if List.for_all (fun (u, v) -> index t u >= 0 && index t v >= 0) edges then t
    else
      let ends = List.concat_map (fun (u, v) -> [ u; v ]) edges in
      { t with labels = sorted_unique (ends @ vertices) }
  in
  let deg = Array.make (Array.length t.labels) 0 in
  let count x = deg.(index t x) <- deg.(index t x) + 1 in
  List.iter (fun (u, v) -> count u; count v) edges;
  let rows = Array.map (fun d -> Array.make d 0) deg in
  let link x y =
    let i = index t x in
    deg.(i) <- deg.(i) - 1;
    rows.(i).(deg.(i)) <- index t y
  in
  List.iter (fun (u, v) -> link u v; link v u) edges;
  { t with adj = Array.map unique (transpose rows) }

let neighbors t v =
  let i = index t v in
  if i < 0 then Iset.empty
  else Array.fold_left (fun s j -> Iset.add t.labels.(j) s) Iset.empty t.adj.(i)

let iter_neighbors t v f =
  let i = index t v in
  if i >= 0 then Array.iter (fun j -> f t.labels.(j)) t.adj.(i)

let complement t =
  let n = Array.length t.labels in
  let adj =
    Array.init n (fun i ->
        let row = t.adj.(i) in
        let k = ref 0 in
        let non = ref [] in
        for j = 0 to n - 1 do
          if !k < Array.length row && row.(!k) = j then incr k
          else if j <> i then non := j :: !non
        done;
        Array.of_list (List.rev !non))
  in
  { labels = t.labels; adj }
