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

(* --- gate level --------------------------------------------------------

   List-based reference versions of fault grading and PODEM: every gate
   is evaluated through [Circuit.eval_kind] over a fresh list of input
   words, every faulty evaluation allocates a fresh net array, and BIST
   responses are decoded lane by lane into bit lists. The properties in
   test_gatelevel.ml compare the compiled kernel ([Sim.eval_chunk]),
   [Fault_sim], [Bist_sim.grade] and [Podem] against them. *)

module Circuit = Bistpath_gatelevel.Circuit
module Fault = Bistpath_gatelevel.Fault
module Misr = Bistpath_gatelevel.Misr
module Scoap = Bistpath_gatelevel.Scoap

let eval_kind kind ws =
  let reduce f = function [] -> invalid_arg "eval_kind" | x :: rest -> List.fold_left f x rest in
  match kind with
  | Circuit.Not -> Int64.lognot (List.hd ws)
  | Circuit.Buf -> List.hd ws
  | Circuit.And -> reduce Int64.logand ws
  | Circuit.Or -> reduce Int64.logor ws
  | Circuit.Nand -> Int64.lognot (reduce Int64.logand ws)
  | Circuit.Nor -> Int64.lognot (reduce Int64.logor ws)
  | Circuit.Xor -> reduce Int64.logxor ws
  | Circuit.Xnor -> Int64.lognot (reduce Int64.logxor ws)

(* Net values with [fault] (if any) forced, from one word per input. *)
let inject ?fault c input_words =
  let nets = Array.make c.Circuit.num_nets 0L in
  let force () =
    match fault with
    | Some (f : Fault.t) ->
      nets.(f.net) <- (match f.polarity with Fault.Stuck_at_0 -> 0L | Stuck_at_1 -> -1L)
    | None -> ()
  in
  List.iteri (fun i n -> nets.(n) <- input_words.(i)) c.Circuit.inputs;
  force ();
  Array.iter
    (fun (g : Circuit.gate) ->
      nets.(g.output) <- eval_kind g.kind (List.map (fun n -> nets.(n)) g.inputs);
      match fault with Some f when f.Fault.net = g.output -> force () | _ -> ())
    c.Circuit.gates;
  nets

let rec chunks n = function
  | [] -> []
  | l ->
    let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: t -> drop (k - 1) t in
    Listx.take n l :: chunks n (drop n l)

(* Pattern j of a chunk occupies bit lane j. *)
let pack num_inputs chunk =
  let words = Array.make num_inputs 0L in
  List.iteri
    (fun lane bits ->
      List.iteri
        (fun i bit ->
          if bit <> 0 then words.(i) <- Int64.logor words.(i) (Int64.shift_left 1L lane))
        bits)
    chunk;
  words

(* Fault_sim.run's detection flag per fault: whole output words differ
   in some chunk. *)
let fault_sim_flags c ~faults ~patterns =
  let packed = List.map (pack (List.length c.Circuit.inputs)) (chunks 64 patterns) in
  let outputs nets = List.map (fun n -> nets.(n)) c.Circuit.outputs in
  let golden = List.map (fun w -> outputs (inject c w)) packed in
  List.map
    (fun f ->
      List.exists2
        (fun w good ->
          List.exists2 (fun x g -> not (Int64.equal x g)) (outputs (inject ~fault:f c w)) good)
        packed golden)
    faults

let bits_of width v = List.init width (fun i -> (v lsr i) land 1)

let lane_outputs c nets lane =
  List.map
    (fun n -> if Int64.logand (Int64.shift_right_logical nets.(n) lane) 1L = 1L then 1 else 0)
    c.Circuit.outputs

let fold_outputs width bits =
  let value = snd (List.fold_left (fun (i, acc) b -> (i + 1, acc lor (b lsl i))) (0, 0) bits) in
  (value land ((1 lsl width) - 1)) lxor (value lsr width)

(* Bist_sim.grade: the operand sequence once per select line, each
   lane's output bits compared and folded into the MISR. *)
let bist_grade ~width c ~operands faults =
  let selects = List.length c.Circuit.inputs - (2 * width) in
  let vectors =
    if selects = 0 then List.map (fun (a, b) -> bits_of width a @ bits_of width b) operands
    else
      List.concat_map
        (fun k ->
          List.map
            (fun (a, b) ->
              bits_of width a @ bits_of width b @ List.init selects (fun j -> if j = k then 1 else 0))
            operands)
        (Listx.range 0 selects)
  in
  let cs = chunks 64 vectors in
  let packed = List.map (pack (List.length c.Circuit.inputs)) cs in
  let sizes = List.map List.length cs in
  let golden = List.map (inject c) packed in
  let signature =
    let misr = Misr.create ~width in
    List.iter2
      (fun nets size ->
        for lane = 0 to size - 1 do
          Misr.absorb misr (fold_outputs width (lane_outputs c nets lane))
        done)
      golden sizes;
    Misr.signature misr
  in
  let grade f =
    let misr = Misr.create ~width in
    let seen = ref false in
    List.iter2
      (fun (words, good) size ->
        let nets = inject ~fault:f c words in
        for lane = 0 to size - 1 do
          let out = lane_outputs c nets lane in
          if out <> lane_outputs c good lane then seen := true;
          Misr.absorb misr (fold_outputs width out)
        done)
      (List.combine packed golden) sizes;
    (!seen, !seen && Misr.signature misr = signature)
  in
  (signature, List.map grade faults)

(* PODEM with per-fault SCOAP, a hashtable of assigned inputs, a
   list-mapping [imply] and the full D-frontier recomputed per step. *)
type tri = T0 | T1 | TX

let tri_not = function T0 -> T1 | T1 -> T0 | TX -> TX
let tri_and a b = match (a, b) with T0, _ | _, T0 -> T0 | T1, T1 -> T1 | _ -> TX
let tri_or a b = match (a, b) with T1, _ | _, T1 -> T1 | T0, T0 -> T0 | _ -> TX
let tri_xor a b = match (a, b) with TX, _ | _, TX -> TX | x, y -> if x = y then T0 else T1

let eval_tri kind ins =
  let reduce f = function x :: rest -> List.fold_left f x rest | [] -> TX in
  match kind with
  | Circuit.And -> reduce tri_and ins
  | Circuit.Nand -> tri_not (reduce tri_and ins)
  | Circuit.Or -> reduce tri_or ins
  | Circuit.Nor -> tri_not (reduce tri_or ins)
  | Circuit.Xor -> reduce tri_xor ins
  | Circuit.Xnor -> tri_not (reduce tri_xor ins)
  | Circuit.Not -> tri_not (List.hd ins)
  | Circuit.Buf -> List.hd ins

let controlling = function
  | Circuit.And -> (Some T0, false)
  | Circuit.Nand -> (Some T0, true)
  | Circuit.Or -> (Some T1, false)
  | Circuit.Nor -> (Some T1, true)
  | Circuit.Not -> (None, true)
  | Circuit.Buf | Circuit.Xor | Circuit.Xnor -> (None, false)

type podem_result = Test of int list | Untestable | Aborted

let podem ~max_backtracks (c : Circuit.t) (fault : Fault.t) =
  let stuck = match fault.polarity with Fault.Stuck_at_0 -> T0 | Stuck_at_1 -> T1 in
  let scoap = Scoap.analyze c in
  let driver = Hashtbl.create 64 in
  Array.iter (fun (g : Circuit.gate) -> Hashtbl.replace driver g.output g) c.gates;
  let pi_value = Hashtbl.create 16 in
  let good = Array.make c.num_nets TX and faulty = Array.make c.num_nets TX in
  let imply () =
    let value i = match Hashtbl.find_opt pi_value i with Some v -> v | None -> TX in
    Array.fill good 0 c.num_nets TX;
    Array.fill faulty 0 c.num_nets TX;
    List.iter (fun i -> good.(i) <- value i; faulty.(i) <- value i) c.inputs;
    if List.mem fault.net c.inputs then faulty.(fault.net) <- stuck;
    Array.iter
      (fun (g : Circuit.gate) ->
        good.(g.output) <- eval_tri g.kind (List.map (fun i -> good.(i)) g.inputs);
        faulty.(g.output) <-
          (if g.output = fault.net then stuck
           else eval_tri g.kind (List.map (fun i -> faulty.(i)) g.inputs)))
      c.gates
  in
  let is_d i = good.(i) <> TX && faulty.(i) <> TX && good.(i) <> faulty.(i) in
  let excited () = is_d fault.net in
  let d_frontier () =
    Array.to_list c.gates
    |> List.filter (fun (g : Circuit.gate) ->
           (good.(g.output) = TX || faulty.(g.output) = TX)
           && (not (is_d g.output))
           && List.exists is_d g.inputs)
  in
  let objective () =
    if not (excited ()) then
      if good.(fault.net) = TX then Some (fault.net, tri_not stuck) else None
    else
      match d_frontier () with
      | [] -> None
      | g :: _ -> (
        match List.filter (fun i -> good.(i) = TX || faulty.(i) = TX) g.inputs with
        | [] -> None
        | i :: _ ->
          Some (i, match fst (controlling g.kind) with Some v -> tri_not v | None -> T1))
  in
  let backtrace (net, want) =
    let rec go net want fuel =
      if fuel = 0 then None
      else
        match Hashtbl.find_opt driver net with
        | None -> if Hashtbl.mem pi_value net then None else Some (net, want)
        | Some (g : Circuit.gate) -> (
          let ctrl, inv = controlling g.kind in
          let want' = if inv then tri_not want else want in
          match List.filter (fun i -> good.(i) = TX) g.inputs with
          | [] -> None
          | x :: _ as xs -> (
            let pick better v =
              let cost i = if v = T0 then Scoap.cc0 scoap i else Scoap.cc1 scoap i in
              List.fold_left (fun a i -> if better (cost i) (cost a) then i else a) x xs
            in
            match ctrl with
            | Some v when want' = v -> go (pick ( < ) v) v (fuel - 1)
            | Some v -> go (pick ( > ) (tri_not v)) (tri_not v) (fuel - 1)
            | None -> go x want' (fuel - 1)))
    in
    go net want (c.num_nets + 1)
  in
  let backtracks = ref 0 and stack = ref [] in
  let rec search () =
    imply ();
    if List.exists is_d c.outputs then
      Some (List.map (fun i -> if Hashtbl.find_opt pi_value i = Some T1 then 1 else 0) c.inputs)
    else if
      (good.(fault.net) <> TX && good.(fault.net) = stuck) || (excited () && d_frontier () = [])
    then backtrack ()
    else
      match Option.bind (objective ()) backtrace with
      | None -> backtrack ()
      | Some (pi, v) ->
        Hashtbl.replace pi_value pi v;
        stack := (pi, v, false) :: !stack;
        search ()
  and backtrack () =
    incr backtracks;
    if !backtracks > max_backtracks then raise Exit
    else
      match !stack with
      | [] -> None
      | (pi, _, true) :: rest ->
        Hashtbl.remove pi_value pi;
        stack := rest;
        backtrack ()
      | (pi, v, false) :: rest ->
        Hashtbl.replace pi_value pi (tri_not v);
        stack := (pi, tri_not v, true) :: rest;
        search ()
  in
  match search () with
  | Some v -> Test v
  | None -> Untestable
  | exception Exit -> Aborted
