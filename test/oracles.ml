(* List-scan reference implementations of the algorithms the library
   runs incrementally over the indexed [Sharing] view: the Lemma-2
   verdict and its greedy CBILBO cover, sharing degrees, the preferred
   perfect elimination ordering, the Tseng-Siewiorek clique partition
   and the chordal-graph kernels the library runs over its int-indexed
   graphs. Each one recomputes everything from plain sets at every
   step, straight from the definitions; the properties in
   test_incremental.ml compare the library against them. *)

module Dfg = Bistpath_dfg.Dfg

(* Definition 3's variable sets of a unit M: I_M (all operand
   variables), O_M (all result variables) and the per-instance operand
   sets I_M^j in schedule order. *)
module Massign = struct
  include Bistpath_dfg.Massign

  let input_variable_set t dfg mid =
    List.fold_left
      (fun set (op : Bistpath_dfg.Op.t) -> Dfg.Sset.add op.left (Dfg.Sset.add op.right set))
      Dfg.Sset.empty (instances t dfg mid)

  let output_variable_set t dfg mid =
    List.fold_left
      (fun set (op : Bistpath_dfg.Op.t) -> Dfg.Sset.add op.out set)
      Dfg.Sset.empty (instances t dfg mid)

  let instance_operands t dfg mid =
    List.map
      (fun (op : Bistpath_dfg.Op.t) -> Dfg.Sset.of_list [ op.left; op.right ])
      (instances t dfg mid)
end

module Sset = Bistpath_dfg.Dfg.Sset
module Ugraph = Graph_ops.Ugraph
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

(* --- chordal graphs, interval graphs, exact clique partitions ----------

   The persistent-set versions of the graph kernels: each PEO step
   removes a vertex from the graph, clique candidates are filtered by
   subset tests, MCS rescans every vertex per step and an interval graph
   tests every pair of spans. *)

module Interval = Graph_ops.Interval
module Coloring = Graph_ops.Coloring

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

(* Keep each candidate {v} + later neighbours that no other candidate
   strictly contains. [entry] names the library function whose failure
   text a non-chordal graph must reproduce. *)
let maximal_cliques ?(entry = "Oracles.maximal_cliques") g =
  let peo = List.rev (mcs_order g) in
  if not (is_peo g peo) then failwith (entry ^ ": graph is not chordal");
  let position = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace position v i) peo;
  let later_clique v =
    let pv = Hashtbl.find position v in
    Iset.add v (Iset.filter (fun u -> Hashtbl.find position u > pv) (Ugraph.neighbors g v))
  in
  let candidates = List.map later_clique peo in
  List.filter
    (fun c ->
      not (List.exists (fun c' -> (not (Iset.equal c c')) && Iset.subset c c') candidates))
    candidates
  |> List.sort_uniq (fun a b -> compare (Iset.elements a) (Iset.elements b))

let max_clique_size_per_vertex g =
  let cliques = maximal_cliques ~entry:"Chordal.max_clique_size_per_vertex" g in
  List.map
    (fun v ->
      ( v,
        List.fold_left
          (fun acc c -> if Iset.mem v c then max acc (Iset.cardinal c) else acc)
          1 cliques ))
    (Ugraph.vertices g)

let clique_number g =
  List.fold_left (fun acc c -> max acc (Iset.cardinal c)) 0
    (maximal_cliques ~entry:"Chordal.clique_number" g)

let interval_graph spans =
  List.iter
    (fun (v, (s : Interval.span)) ->
      if s.death <= s.birth then
        invalid_arg (Printf.sprintf "Interval.graph: empty span for vertex %d" v))
    spans;
  let labels = List.map fst spans in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg "Interval.graph: duplicate vertex label";
  Listx.pairs spans
  |> List.filter_map (fun ((u, su), (v, sv)) ->
         if Interval.overlap su sv then Some (u, v) else None)
  |> Ugraph.of_edges ~vertices:labels

(* A minimum clique partition of g is a minimum coloring of its
   complement: count with the exact colouring search, then recover one
   witness partition of that size by backtracking. Exponential. *)
let exact_clique_partition g =
  let k = Coloring.chromatic_number_exact (Ugraph.complement g) in
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

(* Are the sets disjoint cliques of g covering every vertex? *)
let is_clique_partition g parts =
  let all = List.fold_left Iset.union Iset.empty parts in
  Iset.equal all (Iset.of_list (Ugraph.vertices g))
  && Listx.sum_by Iset.cardinal parts = Ugraph.num_vertices g
  && List.for_all (Ugraph.is_clique g) parts

(* --- gate level --------------------------------------------------------

   List-based reference versions of fault grading and PODEM: every gate
   is evaluated through [Circuit.eval_kind] over a fresh list of input
   words, every faulty evaluation allocates a fresh net array, and BIST
   responses are decoded lane by lane into bit lists. The properties in
   test_gatelevel.ml compare the compiled kernel ([Sim.eval_nets]),
   [Fault_sim], [Bist_sim.grade] and [Podem] against them. *)

module Circuit = Bistpath_gatelevel.Circuit
module Fault = Bistpath_gatelevel.Fault

(* The MISR as a register clocked word by word, from the same primitive
   taps as the library's [Misr.clock]: the reference grader compacts
   every response through it. *)
module Misr = struct
  type t = { mask : int; taps : int list; mutable s : int }

  let create ~width =
    { mask = (1 lsl width) - 1; taps = Bistpath_gatelevel.Lfsr.primitive_taps width; s = 0 }

  let absorb t word =
    let fb = List.fold_left (fun acc tap -> acc lxor ((t.s lsr (tap - 1)) land 1)) 0 t.taps in
    t.s <- (((t.s lsl 1) lor fb) lxor word) land t.mask

  let signature t = t.s

  let run ~width words =
    let t = create ~width in
    List.iter (absorb t) words;
    signature t
end

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

let bits_of width v = List.init width (fun i -> (v lsr i) land 1)

let lane_outputs c nets lane =
  List.map
    (fun n -> if Int64.logand (Int64.shift_right_logical nets.(n) lane) 1L = 1L then 1 else 0)
    c.Circuit.outputs

(* Fault_sim.run's detection flag per fault: the outputs differ in some
   lane that holds a pattern. *)
let fault_sim_flags c ~faults ~patterns =
  let cs = chunks 64 patterns in
  let packed = List.map (pack (List.length c.Circuit.inputs)) cs in
  let golden = List.map (inject c) packed in
  List.map
    (fun f ->
      List.exists2
        (fun (words, good) size ->
          let nets = inject ~fault:f c words in
          List.exists
            (fun lane -> lane_outputs c nets lane <> lane_outputs c good lane)
            (Listx.range 0 size))
        (List.combine packed golden) (List.map List.length cs))
    faults

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

(* --- BIST allocation ---------------------------------------------------

   The string-keyed branch-and-bound [Allocator.solve] ran before its
   engine was indexed and before it memoized bounds: per-register role
   counts in a hashtable keyed by register name, forbidden styles looked
   up in a list, one telemetry increment per node. It is kept as it was,
   except that it also returns the number of search nodes it explored
   and shares its setup, warm start and finish with [bist_exhaustive],
   the unpruned reference. The properties in test_incremental.ml compare
   the indexed engine against both. *)

module Area = Bistpath_datapath.Area
module Datapath = Bistpath_datapath.Datapath
module Ipath = Bistpath_ipath.Ipath
module Resource = Bistpath_bist.Resource
module Allocator = Bistpath_bist.Allocator
module Telemetry = Bistpath_telemetry.Telemetry
module Budget = Bistpath_resilience.Budget
module Inject = Bistpath_resilience.Inject

(* All BIST embeddings of the unit as records, in I-path order: left
   source outermost (simple sources, then with [~transparency] the
   transparent ones), then the right source, skipping the left one,
   then the SA register. Empty iff the unit cannot be tested with
   register-based BIST. The materialised list the factored
   [Ipath.table] rows stand for. *)
let embeddings ?(transparency = false) dp mid =
  let side_options side =
    let simple = List.map (fun r -> (r, None)) (Ipath.tpg_candidates dp mid side) in
    if transparency then
      simple
      @ List.map (fun (r, via) -> (r, Some via)) (Ipath.tpg_candidates_transparent dp mid side)
    else simple
  in
  let ls = side_options Ipath.L in
  let rs = side_options Ipath.R in
  let sas = Ipath.sa_candidates dp mid in
  List.concat_map
    (fun (l, l_via) ->
      List.concat_map
        (fun (r, r_via) ->
          if String.equal l r then []
          else
            List.map
              (fun sa -> { Ipath.mid; l_tpg = l; r_tpg = r; sa; l_via; r_via })
              sas)
        rs)
    ls

(* Every embedding of the unit makes some register TPG-and-SA at once
   (false without embeddings): the post-interconnect situation Lemma 2
   predicts, straight from the embedding list. *)
let cbilbo_unavoidable ?(transparency = false) dp mid =
  match embeddings ~transparency dp mid with
  | [] -> false
  | es -> List.for_all Ipath.requires_cbilbo es

(* Incremental role state: per register, counts of generate/compact
   duties and of units for which the register does both. The style (and
   hence cost) of a register is a function of this summary only. *)
type reg_state = {
  mutable gen : int;  (* TPG duties *)
  mutable comp : int;  (* SA duties *)
  mutable both : int;  (* units for which this register is TPG and SA *)
}

let style_of_state s =
  if s.both > 0 then Resource.Cbilbo
  else
    match (s.gen > 0, s.comp > 0) with
    | false, false -> Resource.Normal
    | true, false -> Resource.Tpg
    | false, true -> Resource.Sa
    | true, true -> Resource.Bilbo

type engine = {
  model : Area.model;
  width : int;
  forbidden : Resource.style list;
  penalized : (string, unit) Hashtbl.t;  (* dedicated registers *)
  io_penalty : int;  (* percent, 100 = none *)
  states : (string, reg_state) Hashtbl.t;
  mutable cost : int;
  mutable feasible : int;  (* number of registers in a forbidden style *)
}

let state_of eng rid =
  match Hashtbl.find_opt eng.states rid with
  | Some s -> s
  | None ->
    let s = { gen = 0; comp = 0; both = 0 } in
    Hashtbl.replace eng.states rid s;
    s

let gates eng rid style =
  let base = Resource.delta_gates eng.model ~width:eng.width style in
  if Hashtbl.mem eng.penalized rid then base * eng.io_penalty / 100 else base

let touch eng rid f =
  let s = state_of eng rid in
  let before = style_of_state s in
  f s;
  let after = style_of_state s in
  eng.cost <- eng.cost - gates eng rid before + gates eng rid after;
  let bad style = List.mem style eng.forbidden in
  eng.feasible <- eng.feasible + (if bad after then 1 else 0) - (if bad before then 1 else 0)

let apply eng (e : Ipath.embedding) =
  touch eng e.l_tpg (fun s ->
      s.gen <- s.gen + 1;
      if String.equal e.l_tpg e.sa then s.both <- s.both + 1);
  touch eng e.r_tpg (fun s ->
      s.gen <- s.gen + 1;
      if String.equal e.r_tpg e.sa then s.both <- s.both + 1);
  touch eng e.sa (fun s -> s.comp <- s.comp + 1)

let unapply eng (e : Ipath.embedding) =
  touch eng e.sa (fun s -> s.comp <- s.comp - 1);
  touch eng e.r_tpg (fun s ->
      s.gen <- s.gen - 1;
      if String.equal e.r_tpg e.sa then s.both <- s.both - 1);
  touch eng e.l_tpg (fun s ->
      s.gen <- s.gen - 1;
      if String.equal e.l_tpg e.sa then s.both <- s.both - 1)

(* Ample to prove every paper design optimal; bounds large generated ones. *)
let node_cap = 200_000

(* The string-keyed engine's setup, warm start and finish around a
   [search] of the ordered units. [search] gets the units (id, options
   in order) and the empty engine, the greedy warm start and its cost
   ([max_int] if it failed), and returns the best embeddings found (by
   unit order), whether the search was exact and its node count. *)
let bist_with ~search ?(model = Area.default) ?(width = 8) ?(forbidden = [])
    ?(io_penalty_percent = 100) ?(transparency = false) dp =
  let penalized = Hashtbl.create 8 in
  if io_penalty_percent <> 100 then
    List.iter
      (fun (r : Datapath.reg) ->
        if r.Datapath.dedicated then Hashtbl.replace penalized r.Datapath.rid ())
      dp.Datapath.regs;
  let fresh_engine () =
    {
      model;
      width;
      forbidden;
      penalized;
      io_penalty = io_penalty_percent;
      states = Hashtbl.create 16;
      cost = 0;
      feasible = 0;
    }
  in
  let units =
    dp.Datapath.massign.Massign.units
    |> List.filter (fun (u : Massign.hw) ->
           Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
  in
  let with_embeddings =
    List.map (fun (u : Massign.hw) -> (u.mid, embeddings ~transparency dp u.mid)) units
  in
  let untestable =
    List.filter_map (fun (m, es) -> if es = [] then Some m else None) with_embeddings
  in
  Telemetry.incr "bist.units" ~by:(List.length with_embeddings);
  Telemetry.incr "bist.embedding_candidates"
    ~by:(Listx.sum_by (fun (_, es) -> List.length es) with_embeddings);
  let eng = fresh_engine () in
  let delta_of e =
    apply eng e;
    let c = eng.cost in
    let ok = eng.feasible = 0 in
    unapply eng e;
    (c, ok)
  in
  (* Order: units with fewest embeddings first; within a unit, embeddings
     sorted by their cost against the empty state (cheap first). *)
  let testable =
    List.filter (fun (_, es) -> es <> []) with_embeddings
    |> List.map (fun (m, es) ->
           let keyed = List.map (fun e -> (fst (delta_of e), e)) es in
           (m, List.map snd (List.sort compare keyed)))
    |> List.sort (fun (_, a) (_, b) -> compare (List.length a) (List.length b))
  in
  let arr = Array.of_list testable in
  let n = Array.length arr in
  (* Greedy warm start: take, per unit in order, the embedding with the
     smallest feasible cost increase. *)
  let greedy = Array.make n None in
  Array.iteri
    (fun i (_, es) ->
      let best = ref None in
      List.iter
        (fun e ->
          let c, ok = delta_of e in
          if ok then
            match !best with
            | Some (bc, _) when bc <= c -> ()
            | _ -> best := Some (c, e))
        es;
      match !best with
      | Some (_, e) ->
        apply eng e;
        greedy.(i) <- Some e
      | None -> ())
    arr;
  let greedy_cost = if Array.exists Option.is_none greedy then max_int else eng.cost in
  (* Reset engine. *)
  Array.iter (function Some e -> unapply eng e | None -> ()) greedy;
  let greedy =
    if greedy_cost = max_int then None else Some (Array.to_list greedy |> List.filter_map Fun.id)
  in
  let best, exact, nodes = search arr eng ~greedy ~greedy_cost in
  (* If nothing feasible was found under the constraints, drop units one
     by one (most-embeddings last) until a feasible core remains. *)
  let chosen_embeddings, extra_untestable =
    match best with
    | Some es -> (es, [])
    | None ->
      let rec shrink dropped lst =
        match lst with
        | [] -> ([], dropped)
        | (mid, _) :: rest ->
          let eng2 = fresh_engine () in
          let ok = ref true in
          let acc = ref [] in
          List.iter
            (fun (_, es) ->
              if !ok then begin
                let best = ref None in
                List.iter
                  (fun e ->
                    apply eng2 e;
                    let c = eng2.cost and feas = eng2.feasible = 0 in
                    unapply eng2 e;
                    if feas then
                      match !best with
                      | Some (bc, _) when bc <= c -> ()
                      | _ -> best := Some (c, e)
                  )
                  es;
                match !best with
                | Some (_, e) ->
                  apply eng2 e;
                  acc := e :: !acc
                | None -> ok := false
              end)
            rest;
          if !ok then (List.rev !acc, dropped @ [ mid ])
          else shrink (dropped @ [ mid ]) rest
      in
      shrink [] (Array.to_list arr)
  in
  let embeddings =
    List.sort (fun (a : Ipath.embedding) b -> compare a.mid b.mid) chosen_embeddings
  in
  (* CBILBO-requiring embeddings that were on the table but not picked. *)
  let cbilbos l = List.length (List.filter Ipath.requires_cbilbo l) in
  Telemetry.incr "bist.cbilbos_avoided"
    ~by:
      (max 0
         (cbilbos (List.concat_map snd with_embeddings) - cbilbos embeddings));
  (* Recompute final styles and cost from scratch for reporting. *)
  let eng3 = fresh_engine () in
  List.iter (apply eng3) embeddings;
  let styles =
    List.map
      (fun (r : Datapath.reg) ->
        let style =
          match Hashtbl.find_opt eng3.states r.rid with
          | Some s -> style_of_state s
          | None -> Resource.Normal
        in
        (r.rid, style))
      dp.Datapath.regs
  in
  ( {
      Allocator.embeddings;
      styles;
      untestable = List.sort compare (untestable @ extra_untestable);
      delta_gates = eng3.cost;
      exact;
    },
    nodes )

(* The branch-and-bound the indexed engine replaced, without a bound
   memo: it visits every node whose partial cost is below the best. *)
let bist_solve ?model ?width ?forbidden ?io_penalty_percent ?transparency
    ?(budget = Budget.unlimited) dp =
  let search arr eng ~greedy ~greedy_cost =
    let n = Array.length arr in
    let best_cost = ref greedy_cost in
    let best = ref greedy in
    let chosen = Array.make n None in
    let nodes = ref 0 in
    let exhausted = ref false in
    let rec branch i =
      if !nodes > node_cap || Budget.should_stop budget then exhausted := true
      else if i = n then begin
        Inject.fire "allocator.leaf";
        if eng.feasible = 0 && eng.cost < !best_cost then begin
          best_cost := eng.cost;
          best := Some (Array.to_list chosen |> List.filter_map Fun.id)
        end
      end
      else
        List.iter
          (fun e ->
            if (not !exhausted) && eng.cost < !best_cost then begin
              incr nodes;
              Budget.node budget;
              Telemetry.incr "bist.embeddings_explored";
              apply eng e;
              chosen.(i) <- Some e;
              (* A later embedding can never remove a duty, so a partial
                 already using a forbidden style cannot recover: prune. *)
              if eng.feasible = 0 then branch (i + 1);
              chosen.(i) <- None;
              unapply eng e
            end)
          (snd arr.(i))
    in
    branch 0;
    (!best, not !exhausted, !nodes)
  in
  bist_with ~search ?model ?width ?forbidden ?io_penalty_percent ?transparency dp

(* The units and options in the order the string-keyed search tries
   them: units with fewest embeddings first, each unit's embeddings
   sorted by [compare] on (cost against the empty state, embedding). *)
let bist_search_order ?model ?width ?io_penalty_percent ?transparency dp =
  let order = ref [] in
  let search arr _ ~greedy ~greedy_cost:_ =
    order := Array.to_list arr;
    (greedy, true, 0)
  in
  ignore (bist_with ~search ?model ?width ?io_penalty_percent ?transparency dp);
  !order

(* The search's specification with no pruning at all: every leaf of the
   ordered product is costed, and the answer is the greedy warm start if
   no leaf is strictly cheaper, else the first cheapest feasible leaf in
   depth-first order. The node count is the number of leaves. *)
let bist_exhaustive ?model ?width ?forbidden ?io_penalty_percent ?transparency dp =
  let search arr eng ~greedy ~greedy_cost =
    let n = Array.length arr in
    let best_cost = ref greedy_cost in
    let best = ref greedy in
    let chosen = Array.make n None in
    let leaves = ref 0 in
    let rec enumerate i =
      if i = n then begin
        incr leaves;
        if eng.feasible = 0 && eng.cost < !best_cost then begin
          best_cost := eng.cost;
          best := Some (Array.to_list chosen |> List.filter_map Fun.id)
        end
      end
      else
        List.iter
          (fun e ->
            apply eng e;
            chosen.(i) <- Some e;
            enumerate (i + 1);
            chosen.(i) <- None;
            unapply eng e)
          (snd arr.(i))
    in
    enumerate 0;
    (!best, true, !leaves)
  in
  bist_with ~search ?model ?width ?forbidden ?io_penalty_percent ?transparency dp

(* --- interconnect orientation ------------------------------------------

   The orientation scorer Interconnect.optimize had before it numbered
   each unit's registers: two [Hashtbl]s of port sources and a weight
   lookup per register on both ports, for every orientation scored. *)

module Op = Bistpath_dfg.Op
module Policy = Bistpath_dfg.Policy
module Regalloc = Bistpath_datapath.Regalloc
module Interconnect = Bistpath_datapath.Interconnect

let operand_regs regalloc policy (op : Op.t) =
  let reg_of v =
    match Regalloc.register_of regalloc v with
    | Some rid -> rid
    | None -> (
      match Policy.carried_into policy v with
      | Some target -> "IN_" ^ target
      | None -> "IN_" ^ v)
  in
  (reg_of op.left, reg_of op.right)

let score_unit (objective : Interconnect.objective) instances swaps =
  Telemetry.incr "interconnect.orientations";
  let l_sources = Hashtbl.create 8 and r_sources = Hashtbl.create 8 in
  List.iteri
    (fun i ((l, r), _commutative) ->
      let l, r = if swaps.(i) then (r, l) else (l, r) in
      Hashtbl.replace l_sources l ();
      Hashtbl.replace r_sources r ())
    instances;
  let connections = Hashtbl.length l_sources + Hashtbl.length r_sources in
  let lr_weight =
    Hashtbl.fold
      (fun reg () acc -> if Hashtbl.mem r_sources reg then acc + objective.weight reg else acc)
      l_sources 0
  in
  let balance = min (Hashtbl.length l_sources) (Hashtbl.length r_sources) in
  let swap_count = Array.fold_left (fun acc s -> acc + if s then 1 else 0) 0 swaps in
  (connections, -lr_weight, (-balance, swap_count))

let interconnect_optimize dfg massign regalloc ~policy ~objective =
  let best_swaps_for (u : Massign.hw) =
    let ops = Massign.instances massign dfg u.mid in
    let instances =
      List.map
        (fun (op : Op.t) -> (operand_regs regalloc policy op, Op.commutative op.kind))
        ops
    in
    let free_idx =
      List.concat (List.mapi (fun i (_, c) -> if c then [ i ] else []) instances)
    in
    let free = List.length free_idx in
    let n = List.length instances in
    let swaps = Array.make n false in
    let apply_mask mask =
      List.iteri (fun bit i -> swaps.(i) <- mask land (1 lsl bit) <> 0) free_idx
    in
    let best = ref (score_unit objective instances swaps) in
    let best_mask = ref 0 in
    if free <= 12 then
      for mask = 0 to (1 lsl free) - 1 do
        apply_mask mask;
        let s = score_unit objective instances swaps in
        if s < !best then begin
          best := s;
          best_mask := mask
        end
      done
    else begin
      apply_mask 0;
      best := score_unit objective instances swaps;
      let improved = ref true in
      let mask = ref 0 in
      while !improved do
        improved := false;
        List.iteri
          (fun bit _ ->
            let candidate = !mask lxor (1 lsl bit) in
            apply_mask candidate;
            let s = score_unit objective instances swaps in
            if s < !best then begin
              best := s;
              mask := candidate;
              improved := true
            end)
          free_idx
      done;
      best_mask := !mask
    end;
    apply_mask !best_mask;
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i (op : Op.t) -> Hashtbl.replace tbl op.id swaps.(i)) ops;
    tbl
  in
  let per_unit =
    List.map (fun (u : Massign.hw) -> (u.mid, best_swaps_for u)) massign.Massign.units
  in
  let swap opid =
    let mid = (Massign.unit_of_op massign opid).Massign.mid in
    match List.assoc_opt mid per_unit with
    | Some tbl -> ( match Hashtbl.find_opt tbl opid with Some s -> s | None -> false)
    | None -> false
  in
  Datapath.build dfg massign regalloc ~policy ~swap

(* --- Pareto front --------------------------------------------------

   Pareto.front's filter before the sweep: every candidate scans the
   whole list for one that dominates it, and of the survivors sharing
   a pair the first in list order is kept. *)

let pareto_front candidates =
  let dominated (d, s, _) =
    List.exists (fun (d', s', _) -> d' <= d && s' <= s && (d' < d || s' < s)) candidates
  in
  let indexed = List.mapi (fun i c -> (i, c)) candidates in
  let first (i, (d, s, _)) =
    not (List.exists (fun (j, (d', s', _)) -> j < i && d' = d && s' = s) indexed)
  in
  indexed
  |> List.filter (fun ((_, p) as c) -> first c && not (dominated p))
  |> List.map snd
  |> List.sort (fun (d, s, _) (d', s', _) -> compare (d, s) (d', s'))

(* --- Session scheduling and the Pareto sweep ------------------------

   Session.schedule before the int kernel: a string-keyed conflict
   graph over the solution's embeddings, coloured first-fit. And
   Pareto.explore before the one-walk sweep: every combination is
   enumerated first (counted against the leaf cap and the budget), then
   each is costed by a full [Allocator.solution_of] and a schedule, and
   the minimum plus the in-bound leaves, in reverse enumeration order,
   go through [pareto_front]. Each point keeps the solution that
   achieves it, the minimum for its own pair. *)

module Session = Bistpath_bist.Session

let session_conflict styles (a : Ipath.embedding) (b : Ipath.embedding) =
  let is_cbilbo r = List.assoc_opt r styles = Some Resource.Cbilbo in
  let tpgs (e : Ipath.embedding) = [ e.l_tpg; e.r_tpg ] in
  let channels (e : Ipath.embedding) = List.filter_map Fun.id [ e.l_via; e.r_via ] in
  String.equal a.sa b.sa
  || (List.mem b.sa (tpgs a) && not (is_cbilbo b.sa))
  || (List.mem a.sa (tpgs b) && not (is_cbilbo a.sa))
  || List.mem b.mid (channels a)
  || List.mem a.mid (channels b)

let session_schedule ?(budget = Budget.unlimited) (sol : Allocator.solution) =
  if Budget.should_stop budget then
    { Session.sessions = List.map (fun (e : Ipath.embedding) -> [ e.mid ]) sol.embeddings }
  else
    let es = Array.of_list sol.embeddings in
    let n = Array.length es in
    let edges =
      Listx.pairs (Listx.range 0 n)
      |> List.filter (fun (i, j) -> session_conflict sol.styles es.(i) es.(j))
    in
    let g = Ugraph.of_edges ~vertices:(Listx.range 0 n) edges in
    let coloring = Coloring.first_fit g (Listx.range 0 n) in
    {
      Session.sessions =
        Coloring.classes coloring
        |> List.map (fun (_, members) -> List.map (fun i -> es.(i).Ipath.mid) members);
    }

let pareto_slack_percent = 50
let pareto_leaf_cap = 20_000

let pareto_explore ?(width = 8) ?(transparency = false) ?(budget = Budget.unlimited) dp =
  let minimum = Allocator.solve ~width ~transparency ~budget dp in
  let bound = minimum.Allocator.delta_gates * (100 + pareto_slack_percent) / 100 in
  let units =
    dp.Datapath.massign.Massign.units
    |> List.filter (fun (u : Massign.hw) ->
           Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
    |> List.filter_map (fun (u : Massign.hw) ->
           match embeddings ~transparency dp u.mid with [] -> None | es -> Some es)
  in
  let chosen_leaves = ref [] in
  let count = ref 0 in
  let rec enumerate chosen = function
    | [] ->
      incr count;
      Budget.leaf budget;
      if !count <= pareto_leaf_cap && not (Budget.should_stop budget) then
        chosen_leaves := chosen :: !chosen_leaves
    | es :: rest ->
      if !count <= pareto_leaf_cap && not (Budget.should_stop budget) then
        List.iter (fun e -> enumerate (e :: chosen) rest) es
  in
  enumerate [] units;
  let solution_of = Allocator.solution_of ~width dp in
  let sessions sol = List.length (session_schedule ~budget sol).Session.sessions in
  let evaluate chosen =
    Inject.fire "pareto.leaf";
    let sol = solution_of chosen in
    if sol.Allocator.delta_gates <= bound then
      Some (sol.Allocator.delta_gates, sessions sol, sol)
    else None
  in
  let leaves = Budget.map budget evaluate !chosen_leaves |> List.filter_map Option.join in
  let min_point = (minimum.Allocator.delta_gates, sessions minimum, minimum) in
  pareto_front (min_point :: leaves)

(* The structural equivalence engine on trees, as Equiv ran it before
   the hash-consed node store: every slot's cone is a tree, [normalize]
   rewrites it bottom-up, and every refinement round serializes every
   slot tree of every cell into a string ([ser], [cell_signature]) to
   number its colours. [of_datapath] builds the reference netlist
   straight from the data path; [of_netlist] unfolds a netlist of the
   node store (the parsed-back side) into trees and normalizes them
   again. The [equiv] properties in test_equiv.ml compare
   [Bistpath_rtl.Netlist] against [refine] and [compare_netlists]. *)
module Equiv_trees = struct
  module Control = Bistpath_datapath.Control
  module Op = Bistpath_dfg.Op
  module Verilog = Bistpath_rtl.Verilog
  module Netlist = Bistpath_rtl.Netlist

  type tree =
    | Pin of string
    | RegQ of int
    | RegSig of int
    | Const of int
    | Undriven
    | Op of string * tree list

  type cell = {
    kind : string;
    cname : string;
    params : (string * int) list;
    conns : (string * tree array) list;
  }

  type netlist = {
    nname : string;
    nin : (string * int) list;
    nout : (string * int) list;
    nsteps : int;
    ncontexts : (int * int) list;
    cells : cell array;
    outdrv : (string * tree array) list;
  }

  let max_session_contexts = 16

  let contexts_of ~has_tm ~sess_bits =
    let tms = if has_tm then [ 0; 1 ] else [ 0 ] in
    let sess =
      match sess_bits with
      | None -> [ 0 ]
      | Some b -> List.init (min (1 lsl min b 30) max_session_contexts) (fun k -> k)
    in
    List.concat_map (fun tm -> List.map (fun k -> (tm, k)) sess) tms

  let slots_of ~contexts ~steps =
    List.concat_map (fun (tm, sess) -> List.init (steps + 2) (fun s -> (tm, sess, s))) contexts

  let slot_describe ~contexts ~steps i =
    let per = steps + 2 in
    let tm, sess = List.nth contexts (i / per) in
    Printf.sprintf "test_mode=%d session=%d step=%d" tm sess (i mod per)

  let rec normalize t =
    match t with
    | Pin _ | RegQ _ | RegSig _ | Const _ | Undriven -> t
    | Op (o, ts) -> (
      let ts = List.map normalize ts in
      match (o, ts) with
      | "lt", _ -> Op ("less", ts)
      | "concat", [ Const 0; (Op ("less", _) as l) ] -> l
      | "cond", [ Op ("eq", [ r; Const 0 ]); Const _; Op ("udiv", [ l; r' ]) ] when r = r' ->
        Op ("div", [ l; r ])
      | _ -> Op (o, ts))

  let commutative = [ "add"; "mul"; "and"; "or"; "xor" ]

  let rec ser colors t =
    match t with
    | Pin p -> "p:" ^ p
    | RegQ i -> "q:" ^ string_of_int (colors i)
    | RegSig i -> "s:" ^ string_of_int (colors i)
    | Const c -> "c:" ^ string_of_int c
    | Undriven -> "undriven"
    | Op (o, ts) ->
      let ss = List.map (ser colors) ts in
      let ss = if List.mem o commutative then List.sort compare ss else ss in
      o ^ "(" ^ String.concat "," ss ^ ")"

  let cell_signature colors c =
    String.concat "|"
      (c.kind
       :: List.map (fun (p, v) -> Printf.sprintf "%s=%d" p v) c.params
       @ List.map
           (fun (port, slots) ->
             port ^ ":" ^ String.concat ";" (Array.to_list (Array.map (ser colors) slots)))
           c.conns)

  let refine a b =
    let na = Array.length a.cells in
    let colors = Array.make (na + Array.length b.cells) 0 in
    let rec round classes =
      let table = Hashtbl.create 64 in
      let next =
        Array.mapi
          (fun i _ ->
            let c, off = if i < na then (a.cells.(i), 0) else (b.cells.(i - na), na) in
            let s = cell_signature (fun j -> colors.(off + j)) c in
            match Hashtbl.find_opt table s with
            | Some k -> k
            | None ->
              let k = Hashtbl.length table in
              Hashtbl.add table s k;
              k)
          colors
      in
      Array.blit next 0 colors 0 (Array.length colors);
      if Hashtbl.length table > classes then round (Hashtbl.length table)
    in
    round 1;
    (Array.sub colors 0 na, Array.sub colors na (Array.length colors - na))

  let max_diffs = 24

  let truncate_str n s = if String.length s <= n then s else String.sub s 0 n ^ "…"

  let compare_netlists ~a_label ~b_label a b =
    let diffs = ref [] and count = ref 0 in
    let diff fmt =
      Printf.ksprintf
        (fun s ->
          incr count;
          if !count <= max_diffs then diffs := s :: !diffs
          else if !count = max_diffs + 1 then diffs := "… (more differences omitted)" :: !diffs)
        fmt
    in
    let compare_ports what pa pb =
      List.iter
        (fun (p, w) ->
          match List.assoc_opt p pb with
          | None -> diff "%s port %s missing in %s" what p b_label
          | Some w' when w' <> w ->
            diff "%s port %s: width %d in %s vs %d in %s" what p w a_label w' b_label
          | Some _ -> ())
        pa;
      List.iter
        (fun (p, _) ->
          if not (List.mem_assoc p pa) then diff "unexpected %s port %s in %s" what p b_label)
        pb
    in
    if a.nname <> b.nname then
      diff "module name: %s in %s vs %s in %s" a.nname a_label b.nname b_label;
    compare_ports "input" a.nin b.nin;
    compare_ports "output" a.nout b.nout;
    if a.nsteps <> b.nsteps then
      diff "NUM_STEPS: %d in %s vs %d in %s" a.nsteps a_label b.nsteps b_label;
    if a.ncontexts <> b.ncontexts then
      diff "test contexts differ (%d in %s vs %d in %s)" (List.length a.ncontexts) a_label
        (List.length b.ncontexts) b_label;
    if !diffs <> [] then List.rev !diffs
    else begin
      if Array.length a.cells <> Array.length b.cells then
        diff "register count: %d in %s vs %d in %s" (Array.length a.cells) a_label
          (Array.length b.cells) b_label;
      let ca, cb = refine a b in
      let count colors =
        let k = Array.make (Array.length a.cells + Array.length b.cells) 0 in
        Array.iter (fun c -> k.(c) <- k.(c) + 1) colors;
        k
      in
      let unmatched nl colors other label other_label =
        Array.iteri
          (fun i (c : cell) ->
            if other.(colors.(i)) > 0 then other.(colors.(i)) <- other.(colors.(i)) - 1
            else
              diff "register %s (%s) in %s has no structural counterpart in %s" c.cname c.kind
                label other_label)
          nl.cells
      in
      let ka = count ca and kb = count cb in
      unmatched a ca kb a_label b_label;
      unmatched b cb ka b_label a_label;
      let steps = a.nsteps in
      List.iter
        (fun (port, sa) ->
          match List.assoc_opt port b.outdrv with
          | None -> diff "output %s is undriven in %s" port b_label
          | Some sb -> (
            let n = min (Array.length sa) (Array.length sb) in
            let rec first i =
              if i >= n then None
              else
                let s1 = ser (Array.get ca) sa.(i) and s2 = ser (Array.get cb) sb.(i) in
                if s1 <> s2 then Some (i, s1, s2) else first (i + 1)
            in
            match first 0 with
            | None -> ()
            | Some (i, s1, s2) ->
              diff "output %s differs at %s: %s vs %s" port
                (slot_describe ~contexts:a.ncontexts ~steps i)
                (truncate_str 48 s1) (truncate_str 48 s2)))
        a.outdrv;
      List.rev !diffs
    end

  let sanitize = Verilog.sanitize

  let op_name = function
    | Op.Add -> "add"
    | Op.Sub -> "sub"
    | Op.Mul -> "mul"
    | Op.Div -> "div"
    | Op.And -> "and"
    | Op.Or -> "or"
    | Op.Xor -> "xor"
    | Op.Less -> "less"

  let of_datapath ?(width = 8) ?bist ?sessions ?(regw = []) (dp : Datapath.t) =
    let rw rid = match List.assoc_opt rid regw with Some w -> w | None -> width in
    let dfg = dp.Datapath.dfg in
    let control = Control.build dp in
    let steps = Dfg.num_csteps dfg in
    let session_list =
      match sessions with Some (t : Session.t) -> t.Session.sessions | None -> []
    in
    let nsess = List.length session_list in
    let has_tm = bist <> None in
    let sess_bits = if nsess > 0 then Some (Verilog.session_bits nsess) else None in
    let contexts = contexts_of ~has_tm ~sess_bits in
    let slot_arr = Array.of_list (slots_of ~contexts ~steps) in
    let nslots = Array.length slot_arr in
    let embedding_of = Verilog.simple_embedding bist in
    let reg_index = Hashtbl.create 16 in
    List.iteri (fun i (r : Datapath.reg) -> Hashtbl.replace reg_index r.Datapath.rid i) dp.Datapath.regs;
    let idx rid = Hashtbl.find reg_index rid in
    let unit_tree (tm, sess, s) mid =
      let u = List.find (fun (u : Massign.hw) -> u.Massign.mid = mid) dp.Datapath.massign.Massign.units in
      let l_srcs, r_srcs = Datapath.unit_port_sources dp mid in
      let activity = Control.activity control mid in
      let session = Verilog.session_of session_list mid and embedding = embedding_of mid in
      if l_srcs = [] && r_srcs = [] then Undriven
      else begin
        let port side srcs sel_of =
          match srcs with
          | [] -> Const 0
          | [ src ] -> RegQ (idx src)
          | ss ->
            let test_idx =
              if nsess > 0 && tm = 1 then
                match (session, embedding) with
                | Some k, Some e when sess = k ->
                  let tpg = if side = `L then e.Ipath.l_tpg else e.Ipath.r_tpg in
                  Listx.index_of (String.equal tpg) ss
                | _ -> None
              else None
            in
            let i =
              match test_idx with
              | Some i -> i
              | None -> (
                match List.assoc_opt s activity with Some sel -> sel_of sel | None -> 0)
            in
            RegQ (idx (List.nth ss i))
        in
        let l = port `L l_srcs (fun (o : Control.unit_op) -> o.Control.l_select) in
        let r = port `R r_srcs (fun (o : Control.unit_op) -> o.Control.r_select) in
        match u.Massign.kinds with
        | [ k ] -> Op (op_name k, [ l; r ])
        | kinds ->
          let fsel =
            match List.assoc_opt s activity with
            | Some o -> 1 lsl o.Control.f_select
            | None -> 0
          in
          let rec pick i = function
            | [ k ] -> k
            | k :: rest -> if (fsel lsr i) land 1 = 1 then k else pick (i + 1) rest
            | [] -> assert false
          in
          Op (op_name (pick 0 kinds), [ l; r ])
      end
    in
    let has_unit mid =
      List.exists (fun (u : Massign.hw) -> u.Massign.mid = mid) dp.Datapath.massign.Massign.units
    in
    let cells =
      List.map
        (fun (r : Datapath.reg) ->
          let rid = r.Datapath.rid in
          let writers =
            match List.assoc_opt rid dp.Datapath.reg_writers with Some ws -> ws | None -> []
          in
          let sched = Control.write_schedule control rid in
          let wsrc_tree slot = function
            | Datapath.From_port v -> Pin ("pin_" ^ sanitize v)
            | Datapath.From_unit mid -> if has_unit mid then unit_tree slot mid else Undriven
          in
          let d_at ((tm, sess, s) as slot) =
            match writers with
            | [] -> Const 0
            | [ w ] -> wsrc_tree slot w
            | ws ->
              let sa_override =
                if nsess > 0 && tm = 1 && sess < nsess then
                  List.find_map
                    (fun mid ->
                      match embedding_of mid with
                      | Some e when String.equal e.Ipath.sa rid ->
                        Listx.index_of (fun w -> w = Datapath.From_unit mid) ws
                      | Some _ | None -> None)
                    (List.nth session_list sess)
                else None
              in
              let sel =
                match sa_override with
                | Some i -> i
                | None -> ( match List.assoc_opt s sched with Some src -> src | None -> 0)
              in
              wsrc_tree slot (List.nth ws sel)
          in
          let en_at (_, _, s) = Const (if List.mem_assoc s sched then 1 else 0) in
          let per f = Array.init nslots (fun i -> normalize (f slot_arr.(i))) in
          let style = Verilog.style_of bist rid in
          let params =
            match style with
            | Resource.Normal | Resource.Sa -> [ ("WIDTH", rw rid) ]
            | Resource.Tpg | Resource.Bilbo | Resource.Cbilbo ->
              [ ("SEED", Verilog.test_seed ~width rid); ("WIDTH", width) ]
          in
          let base =
            [
              ("clk", per (fun _ -> Pin "clk"));
              ("rst", per (fun _ -> Const 0));
              ("en", per en_at);
              ("d", per d_at);
            ]
          in
          let tm_conn = ("test_mode", per (fun (tm, _, _) -> Const tm)) in
          let conns =
            match style with
            | Resource.Normal -> base
            | Resource.Tpg | Resource.Sa | Resource.Cbilbo -> tm_conn :: base
            | Resource.Bilbo ->
              let compact_sessions =
                List.concat
                  (List.mapi
                     (fun k units ->
                       List.filter_map
                         (fun mid ->
                           match embedding_of mid with
                           | Some e when String.equal e.Ipath.sa rid -> Some k
                           | Some _ | None -> None)
                         units)
                     session_list)
              in
              ( "compact",
                per (fun (_, sess, _) -> Const (if List.mem sess compact_sessions then 1 else 0)) )
              :: tm_conn :: base
          in
          {
            kind = Verilog.reg_module style;
            cname = rid;
            params;
            conns = List.sort (fun (a, _) (b, _) -> compare a b) conns;
          })
        dp.Datapath.regs
    in
    let sa_regs = Verilog.signature_registers bist in
    let nin =
      [ ("clk", 1); ("rst", 1) ]
      @ (if has_tm then [ ("test_mode", 1) ] else [])
      @ (match sess_bits with Some b -> [ ("test_session", b) ] | None -> [])
      @ List.map (fun v -> ("pin_" ^ sanitize v, width)) (Dfg.used_inputs dfg)
    in
    let nout =
      List.map (fun (v, _) -> ("pout_" ^ sanitize v, width)) dp.Datapath.outputs
      @ List.map (fun rid -> ("sig_" ^ sanitize rid, width)) sa_regs
    in
    let outdrv =
      List.map
        (fun (v, rid) -> ("pout_" ^ sanitize v, Array.make nslots (RegQ (idx rid))))
        dp.Datapath.outputs
      @ List.map (fun rid -> ("sig_" ^ sanitize rid, Array.make nslots (RegSig (idx rid)))) sa_regs
    in
    let bycol l = List.sort (fun (a, _) (b, _) -> compare a b) l in
    {
      nname = sanitize dfg.Dfg.name ^ "_datapath";
      nin = bycol nin;
      nout = bycol nout;
      nsteps = steps;
      ncontexts = contexts;
      cells = Array.of_list cells;
      outdrv = bycol outdrv;
    }

  (* A store netlist as trees, registers by cell index on its own side *)
  let of_netlist st (n : Netlist.t) =
    let rec tree id =
      match Netlist.node st id with
      | Netlist.Pin p -> Pin p
      | Netlist.RegQ i -> RegQ (i - n.Netlist.base)
      | Netlist.RegSig i -> RegSig (i - n.Netlist.base)
      | Netlist.Const c -> Const c
      | Netlist.Undriven -> Undriven
      | Netlist.Op (o, kids) -> Op (o, List.map tree (Array.to_list kids))
    in
    let slots = Array.map (fun id -> normalize (tree id)) in
    {
      nname = n.Netlist.nname;
      nin = n.Netlist.nin;
      nout = n.Netlist.nout;
      nsteps = n.Netlist.nsteps;
      ncontexts = n.Netlist.ncontexts;
      cells =
        Array.map
          (fun (c : Netlist.cell) ->
            {
              kind = c.Netlist.kind;
              cname = c.Netlist.cname;
              params = c.Netlist.params;
              conns = List.map (fun (p, a) -> (p, slots a)) c.Netlist.conns;
            })
          n.Netlist.cells;
      outdrv = List.map (fun (p, a) -> (p, slots a)) n.Netlist.outdrv;
    }
end

let equiv_structural = Equiv_trees.compare_netlists

(* --- RTL parser --------------------------------------------------------
   The string-token lexer and recursive-descent parser that
   [Bistpath_rtl.Parser] replaced with int-coded token arrays, kept
   verbatim over the library's AST types. The [rtl] properties in
   test_rtl.ml compare the library's parse (AST and diagnostics) against
   [Rtl_parser.parse]. It raises [Failure] on an overflowing decimal
   literal or width, where the library reports an error diagnostic. *)
module Rtl_parser = struct
  open Bistpath_rtl.Parser
  module Diagnostic = Bistpath_resilience.Diagnostic
  module Inject = Bistpath_resilience.Inject
  module Telemetry = Bistpath_telemetry.Telemetry

  (* ------------------------------------------------------------------ *)
  (* Lexer                                                              *)
  (* ------------------------------------------------------------------ *)

  (* [Id] carries whether the identifier was escaped ([\name ]): escaped
     identifiers never match keywords, which is the whole point of the
     escape syntax. *)
  type token =
    | Tid of string * bool  (* name, escaped *)
    | Tnum of int option * int
    | Tstr of string
    | Tpunct of string
    | Teof

  type ltoken = { tok : token; line : int }

  let keywords =
    [ "module"; "endmodule"; "input"; "output"; "inout"; "wire"; "reg";
      "integer"; "assign"; "always"; "initial"; "begin"; "end"; "if"; "else";
      "case"; "casez"; "endcase"; "default"; "posedge"; "negedge"; "parameter";
      "localparam"; "signed"; "generate"; "endgenerate"; "function";
      "endfunction" ]

  let is_keyword s = List.mem s keywords

  let lex ~diag src =
    let n = String.length src in
    let toks = ref [] in
    let line = ref 1 in
    let i = ref 0 in
    let peek k = if !i + k < n then src.[!i + k] else '\000' in
    let push tok = toks := { tok; line = !line } :: !toks in
    let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
    let is_id c = is_id_start c || (c >= '0' && c <= '9') || c = '$' in
    let is_digit c = c >= '0' && c <= '9' in
    while !i < n do
      let c = src.[!i] in
      if c = '\n' then begin incr line; incr i end
      else if c = ' ' || c = '\t' || c = '\r' then incr i
      else if c = '/' && peek 1 = '/' then begin
        while !i < n && src.[!i] <> '\n' do incr i done
      end
      else if c = '/' && peek 1 = '*' then begin
        i := !i + 2;
        let fin = ref false in
        while !i < n && not !fin do
          if src.[!i] = '\n' then incr line;
          if src.[!i] = '*' && peek 1 = '/' then begin fin := true; i := !i + 2 end
          else incr i
        done;
        if not !fin then diag !line "unterminated block comment"
      end
      else if c = '`' then begin
        (* compiler directive (`timescale ...): skip to end of line *)
        while !i < n && src.[!i] <> '\n' do incr i done
      end
      else if c = '"' then begin
        let b = Buffer.create 16 in
        incr i;
        let fin = ref false in
        while !i < n && not !fin do
          let d = src.[!i] in
          if d = '"' then begin fin := true; incr i end
          else if d = '\\' && !i + 1 < n then begin
            if peek 1 = '\n' then incr line;
            Buffer.add_char b d; Buffer.add_char b (peek 1); i := !i + 2
          end
          else begin
            if d = '\n' then incr line;
            Buffer.add_char b d; incr i
          end
        done;
        if not !fin then diag !line "unterminated string literal";
        push (Tstr (Buffer.contents b))
      end
      else if c = '\\' then begin
        (* escaped identifier: backslash to next whitespace *)
        let b = Buffer.create 8 in
        incr i;
        while !i < n && not (List.mem src.[!i] [ ' '; '\t'; '\n'; '\r' ]) do
          Buffer.add_char b src.[!i]; incr i
        done;
        if Buffer.length b = 0 then diag !line "empty escaped identifier"
        else push (Tid (Buffer.contents b, true))
      end
      else if is_id_start c || c = '$' then begin
        let b = Buffer.create 8 in
        while !i < n && is_id src.[!i] do Buffer.add_char b src.[!i]; incr i done;
        push (Tid (Buffer.contents b, false))
      end
      else if is_digit c || (c = '\'' && is_id_start (peek 1)) then begin
        (* number: [width] ' base digits | plain decimal *)
        let start_line = !line in
        let width =
          if is_digit c then begin
            let b = Buffer.create 4 in
            while !i < n && (is_digit src.[!i] || src.[!i] = '_') do
              if src.[!i] <> '_' then Buffer.add_char b src.[!i];
              incr i
            done;
            int_of_string (Buffer.contents b)
          end
          else (-1)
        in
        if !i < n && src.[!i] = '\'' then begin
          incr i;
          let base = if !i < n then Char.lowercase_ascii src.[!i] else '?' in
          if base = '\n' then incr line;
          incr i;
          let radix =
            match base with
            | 'd' -> 10 | 'b' -> 2 | 'h' -> 16 | 'o' -> 8
            | _ ->
              diag start_line (Printf.sprintf "unknown number base %C" base);
              10
          in
          let b = Buffer.create 8 in
          let is_based_digit ch =
            is_digit ch || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F')
            || ch = '_'
          in
          while !i < n && is_based_digit src.[!i] do
            if src.[!i] <> '_' then Buffer.add_char b src.[!i];
            incr i
          done;
          let digits = Buffer.contents b in
          let value =
            if digits = "" then begin
              diag start_line "number literal has no digits";
              0
            end
            else
              match int_of_string_opt (Printf.sprintf "0%c%s"
                       (match radix with 2 -> 'b' | 8 -> 'o' | 16 -> 'x' | _ -> 'u')
                       digits)
              with
              | Some v -> v
              | None -> (
                match int_of_string_opt digits with
                | Some v when radix = 10 -> v
                | _ ->
                  diag start_line (Printf.sprintf "bad number literal %S" digits);
                  0)
          in
          let w =
            if width < 0 then None
            else if width = 0 then begin
              diag start_line "zero-width sized literal";
              Some 0
            end
            else Some width
          in
          push (Tnum (w, value))
        end
        else if width >= 0 then push (Tnum (None, width))
        else diag start_line "stray tick"
      end
      else begin
        (* punctuation, longest match first *)
        let three = if !i + 2 < n then String.init 3 (fun k -> src.[!i + k]) else "" in
        let two = if !i + 1 < n then String.init 2 (fun k -> src.[!i + k]) else "" in
        match (three, two) with
        (* case (in)equality folds onto plain (in)equality: no x/z values
           in this subset *)
        | "===", _ -> push (Tpunct "=="); i := !i + 3
        | "!==", _ -> push (Tpunct "!="); i := !i + 3
        | _, ("==" | "!=" | "<=" | ">=" | "&&" | "||" | "<<" | ">>") ->
          push (Tpunct two); i := !i + 2
        | _ ->
          (match c with
          | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ':' | ',' | '.' | '?'
          | '=' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '!'
          | '<' | '>' | '#' | '@' ->
            push (Tpunct (String.make 1 c))
          | _ -> diag !line (Printf.sprintf "unexpected character %C" c));
          incr i
      end
    done;
    toks := { tok = Teof; line = !line } :: !toks;
    Array.of_list (List.rev !toks)

  (* ------------------------------------------------------------------ *)
  (* Parser                                                             *)
  (* ------------------------------------------------------------------ *)

  type state = {
    toks : ltoken array;
    mutable pos : int;
    collector : Diagnostic.collector;
    file : string option;
  }

  exception Recover
  (* Internal-only: raised on a syntax error after recording the
     diagnostic, caught at the item/module level to resynchronize. It
     never escapes [parse]. *)

  let cur st = st.toks.(st.pos)
  let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

  let err st line fmt =
    Printf.ksprintf
      (fun msg ->
        Diagnostic.emit st.collector (Diagnostic.error ?file:st.file ~line msg))
      fmt

  let fail st fmt =
    let line = (cur st).line in
    Printf.ksprintf
      (fun msg ->
        err st line "%s" msg;
        raise Recover)
      fmt

  let describe = function
    | Tid (s, false) -> Printf.sprintf "%S" s
    | Tid (s, true) -> Printf.sprintf "\\%s" s
    | Tnum (_, v) -> Printf.sprintf "number %d" v
    | Tstr _ -> "string literal"
    | Tpunct p -> Printf.sprintf "%S" p
    | Teof -> "end of input"

  let at_punct st p = match (cur st).tok with Tpunct q -> q = p | _ -> false

  let at_kw st kw =
    match (cur st).tok with Tid (s, false) -> s = kw | _ -> false

  let eat_punct st p =
    if at_punct st p then advance st
    else fail st "expected %S, found %s" p (describe (cur st).tok)

  let eat_kw st kw =
    if at_kw st kw then advance st
    else fail st "expected %S, found %s" kw (describe (cur st).tok)

  let eat_ident st =
    match (cur st).tok with
    | Tid (s, true) -> advance st; s
    | Tid (s, false) when not (is_keyword s) -> advance st; s
    | t -> fail st "expected an identifier, found %s" (describe t)

  (* Resynchronize after a syntax error: skip to just past the next ';',
     or stop before 'endmodule'/'module'/EOF. *)
  let sync st =
    let rec go () =
      match (cur st).tok with
      | Teof -> ()
      | Tpunct ";" -> advance st
      | Tid (("endmodule" | "module"), false) -> ()
      | _ -> advance st; go ()
    in
    go ()

  (* --- expressions --------------------------------------------------- *)

  let rec parse_expr st = parse_cond st

  and parse_cond st =
    let c = parse_lor st in
    if at_punct st "?" then begin
      advance st;
      let t = parse_cond st in
      eat_punct st ":";
      let f = parse_cond st in
      Cond (c, t, f)
    end
    else c

  and parse_lor st =
    let rec go acc =
      if at_punct st "||" then begin advance st; go (Binop (Lor, acc, parse_land st)) end
      else acc
    in
    go (parse_land st)

  and parse_land st =
    let rec go acc =
      if at_punct st "&&" then begin advance st; go (Binop (Land, acc, parse_bor st)) end
      else acc
    in
    go (parse_bor st)

  and parse_bor st =
    let rec go acc =
      if at_punct st "|" then begin advance st; go (Binop (Bor, acc, parse_bxor st)) end
      else acc
    in
    go (parse_bxor st)

  and parse_bxor st =
    let rec go acc =
      if at_punct st "^" then begin advance st; go (Binop (Bxor, acc, parse_band st)) end
      else acc
    in
    go (parse_band st)

  and parse_band st =
    let rec go acc =
      if at_punct st "&" then begin advance st; go (Binop (Band, acc, parse_eq st)) end
      else acc
    in
    go (parse_eq st)

  and parse_eq st =
    let rec go acc =
      if at_punct st "==" then begin advance st; go (Binop (Eq, acc, parse_rel st)) end
      else if at_punct st "!=" then begin advance st; go (Binop (Neq, acc, parse_rel st)) end
      else acc
    in
    go (parse_rel st)

  and parse_rel st =
    let rec go acc =
      if at_punct st "<" then begin advance st; go (Binop (Lt, acc, parse_shift st)) end
      else if at_punct st "<=" then begin advance st; go (Binop (Le, acc, parse_shift st)) end
      else if at_punct st ">" then begin advance st; go (Binop (Gt, acc, parse_shift st)) end
      else if at_punct st ">=" then begin advance st; go (Binop (Ge, acc, parse_shift st)) end
      else acc
    in
    go (parse_shift st)

  and parse_shift st =
    let rec go acc =
      if at_punct st "<<" then begin advance st; go (Binop (Shl, acc, parse_add st)) end
      else if at_punct st ">>" then begin advance st; go (Binop (Shr, acc, parse_add st)) end
      else acc
    in
    go (parse_add st)

  and parse_add st =
    let rec go acc =
      if at_punct st "+" then begin advance st; go (Binop (Add, acc, parse_mul st)) end
      else if at_punct st "-" then begin advance st; go (Binop (Sub, acc, parse_mul st)) end
      else acc
    in
    go (parse_mul st)

  and parse_mul st =
    let rec go acc =
      if at_punct st "*" then begin advance st; go (Binop (Mul, acc, parse_unary st)) end
      else if at_punct st "/" then begin advance st; go (Binop (Div, acc, parse_unary st)) end
      else if at_punct st "%" then begin advance st; go (Binop (Mod, acc, parse_unary st)) end
      else acc
    in
    go (parse_unary st)

  and parse_unary st =
    if at_punct st "~" then begin advance st; Unop (Bnot, parse_unary st) end
    else if at_punct st "!" then begin advance st; Unop (Lnot, parse_unary st) end
    else if at_punct st "^" then begin advance st; Unop (Rxor, parse_unary st) end
    else if at_punct st "-" then begin advance st; Unop (Neg, parse_unary st) end
    else parse_postfix st

  and parse_postfix st =
    let e = parse_primary st in
    let rec go acc =
      if at_punct st "[" then begin
        advance st;
        let a = parse_expr st in
        if at_punct st ":" then begin
          advance st;
          let b = parse_expr st in
          eat_punct st "]";
          go (Range (acc, a, b))
        end
        else begin
          eat_punct st "]";
          go (Index (acc, a))
        end
      end
      else acc
    in
    go e

  and parse_primary st =
    match (cur st).tok with
    | Tnum (w, v) -> advance st; Num (w, v)
    | Tstr s -> advance st; Str s
    | Tid (s, true) -> advance st; Ident s
    | Tid (s, false) when not (is_keyword s) -> advance st; Ident s
    | Tpunct "(" ->
      advance st;
      let e = parse_expr st in
      eat_punct st ")";
      e
    | Tpunct "{" ->
      advance st;
      let first = parse_expr st in
      if at_punct st "{" then begin
        (* replication: {count{inner[, inner]*}} *)
        advance st;
        let rec items acc =
          let e = parse_expr st in
          if at_punct st "," then begin advance st; items (e :: acc) end
          else List.rev (e :: acc)
        in
        let inner = items [] in
        eat_punct st "}";
        eat_punct st "}";
        Repl (first, match inner with [ e ] -> e | es -> Concat es)
      end
      else begin
        let rec items acc =
          if at_punct st "," then begin
            advance st;
            items (parse_expr st :: acc)
          end
          else List.rev acc
        in
        let es = items [ first ] in
        eat_punct st "}";
        match es with [ e ] -> e | _ -> Concat es
      end
    | t -> fail st "expected an expression, found %s" (describe t)

  (* --- statements ---------------------------------------------------- *)

  let rec parse_stmt st =
    match (cur st).tok with
    | Tid ("begin", false) ->
      advance st;
      let rec go acc =
        if at_kw st "end" then begin advance st; Block (List.rev acc) end
        else if (cur st).tok = Teof then fail st "unterminated begin/end block"
        else go (parse_stmt st :: acc)
      in
      go []
    | Tid ("if", false) ->
      advance st;
      eat_punct st "(";
      let c = parse_expr st in
      eat_punct st ")";
      let t = parse_stmt st in
      if at_kw st "else" then begin
        advance st;
        let f = parse_stmt st in
        If (c, t, Some f)
      end
      else If (c, t, None)
    | Tid (("case" | "casez"), false) ->
      advance st;
      eat_punct st "(";
      let scrut = parse_expr st in
      eat_punct st ")";
      let rec arms acc dflt =
        if at_kw st "endcase" then begin advance st; Case (scrut, List.rev acc, dflt) end
        else if (cur st).tok = Teof then fail st "unterminated case"
        else if at_kw st "default" then begin
          advance st;
          eat_punct st ":";
          let s = parse_stmt st in
          arms acc (Some s)
        end
        else begin
          let rec labels ls =
            let e = parse_expr st in
            if at_punct st "," then begin advance st; labels (e :: ls) end
            else List.rev (e :: ls)
          in
          let ls = labels [] in
          eat_punct st ":";
          let s = parse_stmt st in
          arms ((ls, s) :: acc) dflt
        end
      in
      arms [] None
    | Tid (s, false) when s.[0] = '$' ->
      advance st;
      let args =
        if at_punct st "(" then begin
          advance st;
          let rec go acc =
            if at_punct st ")" then begin advance st; List.rev acc end
            else begin
              let e = parse_expr st in
              if at_punct st "," then advance st;
              go (e :: acc)
            end
          in
          go []
        end
        else []
      in
      eat_punct st ";";
      Sys (s, args)
    | Tpunct "@" ->
      advance st;
      eat_punct st "(";
      let rec skip depth =
        match (cur st).tok with
        | Tpunct "(" -> advance st; skip (depth + 1)
        | Tpunct ")" -> advance st; if depth > 1 then skip (depth - 1)
        | Teof -> fail st "unterminated event control"
        | _ -> advance st; skip depth
      in
      skip 1;
      if at_punct st ";" then begin advance st; Timing None end
      else Timing (Some (parse_stmt st))
    | Tpunct "#" ->
      advance st;
      (match (cur st).tok with
      | Tnum _ -> advance st
      | _ -> fail st "expected a delay value after '#'");
      if at_punct st ";" then begin advance st; Timing None end
      else Timing (Some (parse_stmt st))
    | Tpunct ";" -> advance st; Nop
    | Tid _ ->
      let lhs = eat_ident st in
      if at_punct st "<=" then begin
        advance st;
        let rhs = parse_expr st in
        eat_punct st ";";
        Nonblocking (lhs, rhs)
      end
      else if at_punct st "=" then begin
        advance st;
        let rhs = parse_expr st in
        eat_punct st ";";
        Blocking (lhs, rhs)
      end
      else fail st "expected '=' or '<=' in statement"
    | t -> fail st "expected a statement, found %s" (describe t)

  (* --- module items -------------------------------------------------- *)

  let parse_range_opt st =
    if at_punct st "[" then begin
      advance st;
      let msb = parse_expr st in
      eat_punct st ":";
      let lsb = parse_expr st in
      eat_punct st "]";
      Some (msb, lsb)
    end
    else None

  (* header parameter list: #(parameter [range] NAME = expr, ...) *)
  let parse_header_params st =
    if not (at_punct st "#") then []
    else begin
      advance st;
      eat_punct st "(";
      let rec go acc =
        if at_punct st ")" then begin advance st; List.rev acc end
        else begin
          eat_kw st "parameter";
          ignore (parse_range_opt st);
          let name = eat_ident st in
          eat_punct st "=";
          let v = parse_expr st in
          if at_punct st "," then advance st;
          go ((name, v) :: acc)
        end
      in
      go []
    end

  let parse_ports st =
    eat_punct st "(";
    let rec go acc dir preg prange =
      match (cur st).tok with
      | Tpunct ")" -> advance st; List.rev acc
      | Teof -> fail st "unterminated port list"
      | Tid (("input" | "output" | "inout") as d, false) ->
        let line = (cur st).line in
        advance st;
        let dir = if d = "input" then Input else Output in
        if d = "inout" then err st line "inout ports are not supported";
        let preg =
          if at_kw st "reg" then begin advance st; true end
          else begin
            if at_kw st "wire" then advance st;
            false
          end
        in
        let prange = parse_range_opt st in
        go acc (Some dir) preg prange
      | _ ->
        let line = (cur st).line in
        let name = eat_ident st in
        (match dir with
        | None -> fail st "port %S has no direction (non-ANSI headers are not supported)" name
        | Some d ->
          let p = { dir = d; preg; prange; pname = name; pline = line } in
          if at_punct st "," then advance st;
          go (p :: acc) dir preg prange)
    in
    go [] None false None

  let parse_instance st module_name iline =
    let params =
      if at_punct st "#" then begin
        advance st;
        eat_punct st "(";
        let rec go acc =
          if at_punct st ")" then begin advance st; List.rev acc end
          else begin
            eat_punct st ".";
            let p = eat_ident st in
            eat_punct st "(";
            let v = parse_expr st in
            eat_punct st ")";
            if at_punct st "," then advance st;
            go ((p, v) :: acc)
          end
        in
        go []
      end
      else []
    in
    let instance_name = eat_ident st in
    eat_punct st "(";
    let rec conns acc =
      if at_punct st ")" then begin advance st; List.rev acc end
      else begin
        eat_punct st ".";
        let p = eat_ident st in
        eat_punct st "(";
        let v = parse_expr st in
        eat_punct st ")";
        if at_punct st "," then advance st;
        conns ((p, v) :: acc)
      end
    in
    let conns = conns [] in
    eat_punct st ";";
    Instance { module_name; params; instance_name; conns; iline }

  let parse_item st =
    let line = (cur st).line in
    match (cur st).tok with
    | Tid (("wire" | "reg" | "integer") as kw, false) ->
      advance st;
      let drange = parse_range_opt st in
      let rec names acc =
        let n = eat_ident st in
        let init =
          if at_punct st "=" then begin advance st; Some (parse_expr st) end
          else None
        in
        if at_punct st "," then begin advance st; names ((n, init) :: acc) end
        else List.rev ((n, init) :: acc)
      in
      let names = names [] in
      eat_punct st ";";
      [ Decl { dreg = kw <> "wire"; drange; names; dline = line } ]
    | Tid ("assign", false) ->
      advance st;
      let lhs = eat_ident st in
      eat_punct st "=";
      let rhs = parse_expr st in
      eat_punct st ";";
      [ Assign { lhs; rhs; aline = line } ]
    | Tid ("localparam", false) ->
      advance st;
      let rec go acc =
        let name = eat_ident st in
        eat_punct st "=";
        let value = parse_expr st in
        let acc = Localparam { name; value; lline = line } :: acc in
        if at_punct st "," then begin advance st; go acc end
        else begin
          eat_punct st ";";
          List.rev acc
        end
      in
      go []
    | Tid ("always", false) ->
      advance st;
      let trigger =
        if at_punct st "@" then begin
          advance st;
          eat_punct st "(";
          if at_punct st "*" then begin advance st; eat_punct st ")"; Star end
          else begin
            eat_kw st "posedge";
            let clk = eat_ident st in
            eat_punct st ")";
            Posedge clk
          end
        end
        else if at_punct st "#" then begin
          advance st;
          match (cur st).tok with
          | Tnum (_, v) -> advance st; Delay v
          | _ -> fail st "expected a delay after 'always #'"
        end
        else fail st "expected '@(posedge ...)' or '#N' after 'always'"
      in
      let body = parse_stmt st in
      [ Always { trigger; body; bline = line } ]
    | Tid ("initial", false) ->
      advance st;
      [ Initial (parse_stmt st) ]
    | Tid (name, esc) when esc || not (is_keyword name) ->
      advance st;
      [ parse_instance st name line ]
    | t -> fail st "expected a module item, found %s" (describe t)

  let parse_module st =
    let mline = (cur st).line in
    eat_kw st "module";
    let name = eat_ident st in
    let mparams = parse_header_params st in
    let ports = if at_punct st "(" then parse_ports st else [] in
    eat_punct st ";";
    let items = ref [] in
    let rec go () =
      match (cur st).tok with
      | Tid ("endmodule", false) -> advance st
      | Teof -> fail st "missing 'endmodule' for module %S" name
      | _ ->
        (match parse_item st with
        | its -> items := List.rev_append its !items
        | exception Recover -> sync st);
        go ()
    in
    go ();
    { name; mparams; ports; items = List.rev !items; mline }

  let parse ?max_errors ?file src =
    let collector = Diagnostic.collector ?max_errors () in
    if Inject.should_fire "rtl.parse" then
      Diagnostic.emit collector
        (Diagnostic.error ?file "injected fault at site rtl.parse");
    let diag line msg =
      Diagnostic.emit collector (Diagnostic.error ?file ~line msg)
    in
    let toks = lex ~diag src in
    let st = { toks; pos = 0; collector; file } in
    let modules = ref [] in
    let rec go () =
      match (cur st).tok with
      | Teof -> ()
      | Tid ("module", false) ->
        (match parse_module st with
        | m -> modules := m :: !modules
        | exception Recover ->
          sync st;
          (* a failed module header leaves us before the next sync point;
             make progress unconditionally so the loop terminates *)
          if at_kw st "module" then advance st);
        go ()
      | t ->
        err st (cur st).line "expected \"module\", found %s" (describe t);
        advance st;
        sync st;
        go ()
    in
    go ();
    let diagnostics = Diagnostic.all collector in
    let nerrors =
      List.length
        (List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) diagnostics)
    in
    if nerrors > 0 then Telemetry.incr ~by:nerrors "rtl.parse_errors";
    { modules = List.rev !modules; diagnostics }

  let errors t =
    List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) t.diagnostics
end

(* --- control table and behavioural evaluation ---------------------------
   [Control.build] as it was before it indexed its input in one pass: every
   route rescans every route for its unit's port sources, and each step
   filters every event. [eval_run] is [Eval.run] before it bucketed the
   operations by step: each step filters all of them. The [tables]
   properties compare the library against both. *)

module Control = Bistpath_datapath.Control

let control_build (dp : Datapath.t) =
  let open Control in
  let dfg = dp.Datapath.dfg in
  let num_steps = Dfg.num_csteps dfg in
  let index_of_exn what x l =
    match Listx.index_of (fun y -> y = x) l with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Control.build: %s not found" what)
  in
  let writer_index rid src =
    let writers = List.assoc rid dp.Datapath.reg_writers in
    index_of_exn (Printf.sprintf "writer of %s" rid) src writers
  in
  let op_events =
    List.map
      (fun (rt : Datapath.route) ->
        let op =
          match Dfg.op_by_id dfg rt.opid with
          | Some op -> op
          | None -> assert false
        in
        let u = Massign.unit_of_op dp.Datapath.massign rt.opid in
        let l_sources, r_sources = Datapath.unit_port_sources dp u.Massign.mid in
        let cstep = Dfg.cstep dfg rt.opid in
        let uop =
          {
            mid = u.Massign.mid;
            opid = rt.opid;
            l_select = index_of_exn "left source" rt.l_reg l_sources;
            r_select = index_of_exn "right source" rt.r_reg r_sources;
            f_select = index_of_exn "function" op.Op.kind u.Massign.kinds;
          }
        in
        let write =
          {
            rid = rt.out_reg;
            source_index = writer_index rt.out_reg (Datapath.From_unit u.Massign.mid);
            variable = op.Op.out;
          }
        in
        (cstep, uop, write))
      dp.Datapath.routes
  in
  let used_inputs = Dfg.used_inputs dfg in
  let load_events =
    List.concat_map
      (fun (r : Datapath.reg) ->
        List.filter_map
          (fun v ->
            if List.mem v used_inputs then
              Some
                ( latch_step dfg v,
                  {
                    rid = r.Datapath.rid;
                    source_index = writer_index r.Datapath.rid (Datapath.From_port v);
                    variable = v;
                  } )
            else None)
          r.Datapath.vars)
      dp.Datapath.regs
  in
  let steps =
    List.map
      (fun index ->
        let ops =
          List.filter_map (fun (c, uop, _) -> if c = index then Some uop else None) op_events
        in
        let writes =
          List.filter_map (fun (c, _, w) -> if c = index then Some w else None) op_events
          @ List.filter_map (fun (c, w) -> if c = index then Some w else None) load_events
        in
        let rids = List.map (fun w -> w.rid) writes in
        (match
           List.find_opt (fun r -> List.length (List.filter (String.equal r) rids) > 1) rids
         with
        | Some rid ->
          invalid_arg
            (Printf.sprintf "Control.build: register %s written twice in step %d" rid index)
        | None -> ());
        { index; ops; writes })
      (Listx.range 0 (num_steps + 1))
  in
  { steps }

let eval_run dfg ~width ~inputs =
  List.iter
    (fun v ->
      if not (List.mem_assoc v inputs) then
        invalid_arg (Printf.sprintf "Eval.run: missing value for input %s" v))
    (Dfg.used_inputs dfg);
  List.iter
    (fun (v, _) ->
      if not (List.mem v dfg.Dfg.inputs) then
        invalid_arg (Printf.sprintf "Eval.run: %s is not a primary input" v))
    inputs;
  let env = Hashtbl.create 16 in
  List.iter (fun (v, x) -> Hashtbl.replace env v x) inputs;
  let value v =
    match Hashtbl.find_opt env v with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "Eval.run: %s read before definition" v)
  in
  for step = 1 to Dfg.num_csteps dfg do
    let results =
      List.map
        (fun (op : Op.t) -> (op.out, Op.eval op.kind ~width (value op.left) (value op.right)))
        (Dfg.ops_in_step dfg step)
    in
    List.iter (fun (v, x) -> Hashtbl.replace env v x) results
  done;
  dfg.Dfg.outputs |> List.map (fun v -> (v, Hashtbl.find env v)) |> List.sort compare
