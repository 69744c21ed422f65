module Iset = Ugraph.Iset
module Telemetry = Bistpath_telemetry.Telemetry

(* Super-vertex merging: clusters are cliques; two clusters can merge iff
   every cross pair is an edge. We score a merge by the number of other
   clusters both could still merge with afterwards (common neighbors), the
   classical Tseng-Siewiorek heuristic, then by the summed weight of the
   cross pairs.

   Clusters live in slots, initially their vertex's index; merging the
   pair (a, b) keeps a's slot. Three flat n x n matrices over slots are
   kept up to date on each merge instead of being rescanned:
   mergeability, the directed cross weight (W(a+b, c) = W(a, c) + W(b, c))
   and the common-neighbour count. Mergeability only ever turns false, so
   a weight or count is kept only for a mergeable pair: the only pairs
   ever scored. *)
let greedy ?(weight = fun _ _ -> 0) (g : Ugraph.t) =
  let vs = g.labels in
  let n = Array.length vs in
  let can = Bytes.make (n * n) '\000' in
  let mergeable a b = Bytes.unsafe_get can ((a * n) + b) <> '\000' in
  let set_mergeable a b m =
    let c = if m then '\001' else '\000' in
    Bytes.unsafe_set can ((a * n) + b) c;
    Bytes.unsafe_set can ((b * n) + a) c
  in
  let w = Array.make (n * n) 0 and common = Array.make (n * n) 0 in
  let set_common a b k =
    common.((a * n) + b) <- k;
    common.((b * n) + a) <- k
  in
  Array.iteri
    (fun a row ->
      Array.iter
        (fun b ->
          set_mergeable a b true;
          w.((a * n) + b) <- weight vs.(a) vs.(b))
        row)
    g.adj;
  let rows = Bitrows.of_adjacency g.adj in
  Array.iteri
    (fun a row -> Array.iter (fun b -> if a < b then set_common a b (Bitrows.common rows a b)) row)
    g.adj;
  let members = Array.map Iset.singleton vs in
  (* the clusters in their current order *)
  let order = Array.init n Fun.id and live = ref n in
  (* per merge: the other clusters, those of them next to a or b, and
     whether each of those is next to a and to b *)
  let rest = Array.make n 0 and near = Array.make n 0 in
  let near_a = Array.make n false and near_b = Array.make n false in
  let rec go () =
    Telemetry.incr "clique.iterations";
    (* the first maximum of (common, weight) in [Listx.pairs] order *)
    let best_a = ref (-1) and best_b = ref (-1) and best_c = ref (-1) and best_w = ref 0 in
    for i = 0 to !live - 2 do
      let row = order.(i) * n in
      for j = i + 1 to !live - 1 do
        let ab = row + order.(j) in
        if Bytes.unsafe_get can ab <> '\000' then begin
          let c = common.(ab) and wt = w.(ab) in
          if c > !best_c || (c = !best_c && wt > !best_w) then begin
            best_a := order.(i);
            best_b := order.(j);
            best_c := c;
            best_w := wt
          end
        end
      done
    done;
    if !best_a < 0 then List.init !live (fun i -> members.(order.(i)))
    else begin
      Telemetry.incr "clique.merges";
      let a = !best_a and b = !best_b in
      (* a first, then the others in their order *)
      let k = ref 0 and t = ref 0 in
      for i = 0 to !live - 1 do
        let c = order.(i) in
        if c <> a && c <> b then begin
          rest.(!k) <- c;
          incr k;
          let ma = mergeable a c and mb = mergeable b c in
          if ma || mb then begin
            near.(!t) <- c;
            near_a.(!t) <- ma;
            near_b.(!t) <- mb;
            incr t
          end
        end
      done;
      order.(0) <- a;
      Array.blit rest 0 order 1 !k;
      decr live;
      (* a pair's common count loses a and b as third clusters and gains
         their union: one less if both could merge with a or both with b *)
      for i = 0 to !t - 1 do
        let x = near.(i) in
        for j = i + 1 to !t - 1 do
          let y = near.(j) in
          if ((near_a.(i) && near_a.(j)) || (near_b.(i) && near_b.(j)))
             && Bytes.unsafe_get can ((x * n) + y) <> '\000'
          then set_common x y (common.((x * n) + y) - 1)
        done
      done;
      (* the union can merge with what both could merge with *)
      let both = ref 0 in
      for i = 0 to !t - 1 do
        let c = near.(i) in
        let m = near_a.(i) && near_b.(i) in
        set_mergeable a c m;
        if m then begin
          w.((a * n) + c) <- w.((a * n) + c) + w.((b * n) + c);
          w.((c * n) + a) <- w.((c * n) + a) + w.((c * n) + b);
          near.(!both) <- c;
          incr both
        end
      done;
      for i = 0 to !both - 1 do
        let c = near.(i) in
        let k = ref 0 in
        for j = 0 to !both - 1 do
          if Bytes.unsafe_get can ((c * n) + near.(j)) <> '\000' then incr k
        done;
        set_common a c !k
      done;
      members.(a) <- Iset.union members.(a) members.(b);
      go ()
    end
  in
  go ()
