module Iset = Ugraph.Iset
module Telemetry = Bistpath_telemetry.Telemetry

(* Super-vertex merging: clusters are cliques; two clusters can merge iff
   every cross pair is an edge. We score a merge by the number of other
   clusters both could still merge with afterwards (common neighbors), the
   classical Tseng-Siewiorek heuristic, then by the summed weight of the
   cross pairs.

   Clusters live in slots, initially their vertex's position; merging
   the pair (a, b) keeps a's slot. Three matrices over slots are kept
   up to date on each merge instead of being rescanned: mergeability,
   the directed cross weight (W(a+b, c) = W(a, c) + W(b, c)), and the
   common-neighbour count of every pair. *)
let greedy ?(weight = fun _ _ -> 0) g =
  let vs = Array.of_list (Ugraph.vertices g) in
  let n = Array.length vs in
  let members = Array.map Iset.singleton vs in
  let can = Array.init n (fun a -> Array.init n (fun b -> Ugraph.mem_edge g vs.(a) vs.(b))) in
  let w =
    Array.init n (fun a -> Array.init n (fun b -> if a = b then 0 else weight vs.(a) vs.(b)))
  in
  let common = Array.make_matrix n n 0 in
  (* clusters of [order] other than a and b that both can merge with *)
  let shared order a b =
    List.fold_left
      (fun k c -> if c <> a && c <> b && can.(a).(c) && can.(b).(c) then k + 1 else k)
      0 order
  in
  let all = List.init n Fun.id in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let k = shared all a b in
          common.(a).(b) <- k;
          common.(b).(a) <- k)
        (List.filter (fun b -> b > a) all))
    all;
  let rec go order =
    Telemetry.incr "clique.iterations";
    (* the first maximum of (common, weight) in [Listx.pairs] order *)
    let best = ref None in
    let rec scan = function
      | [] -> ()
      | a :: rest ->
        List.iter
          (fun b ->
            if can.(a).(b) then
              let score = (common.(a).(b), w.(a).(b)) in
              match !best with
              | Some (_, _, s) when compare score s <= 0 -> ()
              | _ -> best := Some (a, b, score))
          rest;
        scan rest
    in
    scan order;
    match !best with
    | None -> List.map (fun s -> members.(s)) order
    | Some (a, b, _) ->
      Telemetry.incr "clique.merges";
      let others = List.filter (fun c -> c <> a && c <> b) order in
      let can_ab c = can.(a).(c) && can.(b).(c) in
      (* a pair's common count loses a and b as third clusters and gains
         their union *)
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              if x < y then begin
                let k =
                  common.(x).(y)
                  - Bool.to_int (can.(x).(a) && can.(y).(a))
                  - Bool.to_int (can.(x).(b) && can.(y).(b))
                  + Bool.to_int (can_ab x && can_ab y)
                in
                common.(x).(y) <- k;
                common.(y).(x) <- k
              end)
            others)
        others;
      List.iter
        (fun c ->
          let m = can_ab c in
          can.(a).(c) <- m;
          can.(c).(a) <- m;
          w.(a).(c) <- w.(a).(c) + w.(b).(c);
          w.(c).(a) <- w.(c).(a) + w.(c).(b))
        others;
      members.(a) <- Iset.union members.(a) members.(b);
      List.iter
        (fun c ->
          let k = shared others a c in
          common.(a).(c) <- k;
          common.(c).(a) <- k)
        others;
      go (a :: others)
  in
  go all

let exact_min g =
  (* A minimum clique partition of g is a minimum coloring of its
     complement; reuse the exact coloring counter via search over k. *)
  let co = Ugraph.complement g in
  let k = Coloring.chromatic_number_exact co in
  (* Recover one witness partition of that size by backtracking. *)
  let vs = Array.of_list (Ugraph.vertices g) in
  let n = Array.length vs in
  let blocks = Array.make (max k 1) Iset.empty in
  let ok v block = Iset.for_all (fun u -> Ugraph.mem_edge g u v) block in
  let exception Found of Iset.t list in
  let rec go i opened =
    if i = n then raise (Found (Array.to_list (Array.sub blocks 0 opened)))
    else begin
      let v = vs.(i) in
      for b = 0 to opened - 1 do
        if ok v blocks.(b) then begin
          blocks.(b) <- Iset.add v blocks.(b);
          go (i + 1) opened;
          blocks.(b) <- Iset.remove v blocks.(b)
        end
      done;
      if opened < k then begin
        blocks.(opened) <- Iset.singleton v;
        go (i + 1) (opened + 1);
        blocks.(opened) <- Iset.empty
      end
    end
  in
  if n = 0 then []
  else try go 0 0; assert false with Found p -> p

let is_partition g parts =
  let all = List.fold_left Iset.union Iset.empty parts in
  let total = Bistpath_util.Listx.sum_by Iset.cardinal parts in
  Iset.equal all (Iset.of_list (Ugraph.vertices g))
  && total = Ugraph.num_vertices g
  && List.for_all (Ugraph.is_clique g) parts
