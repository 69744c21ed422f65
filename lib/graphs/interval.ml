type span = { birth : int; death : int }

let overlap a b = a.birth < b.death && b.birth < a.death

(* Sort by birth and sweep: a span overlaps exactly the earlier-born
   spans still live at its birth, and a span dead by then overlaps no
   later one either. O(n log n + m). *)
let graph spans =
  List.iter
    (fun (v, s) ->
      if s.death <= s.birth then
        invalid_arg (Printf.sprintf "Interval.graph: empty span for vertex %d" v))
    spans;
  let labels = List.map fst spans in
  if List.length (List.sort_uniq Int.compare labels) <> List.length labels then
    invalid_arg "Interval.graph: duplicate vertex label";
  let by_birth = List.stable_sort (fun (_, a) (_, b) -> Int.compare a.birth b.birth) spans in
  let _, edges =
    List.fold_left
      (fun (live, edges) (v, s) ->
        let live = List.filter (fun (_, l) -> l.death > s.birth) live in
        ((v, s) :: live, List.fold_left (fun edges (u, _) -> (u, v) :: edges) edges live))
      ([], []) by_birth
  in
  Ugraph.of_edges ~vertices:labels edges
