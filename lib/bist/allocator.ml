module Area = Bistpath_datapath.Area
module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign
module Ipath = Bistpath_ipath.Ipath
module Listx = Bistpath_util.Listx
module Telemetry = Bistpath_telemetry.Telemetry
module Budget = Bistpath_resilience.Budget
module Inject = Bistpath_resilience.Inject

type solution = {
  embeddings : Ipath.embedding list;
  styles : (string * Resource.style) list;
  untestable : string list;
  delta_gates : int;
  exact : bool;
}

(* The indexed engine. Registers are numbered once, in [dp.regs] order,
   and each embedding becomes an (l, r, sa) triple of register numbers.
   Per register it keeps counts of generate and compact duties and of
   units for which the register does both; a register's style, and so
   its cost, is a function of these three counts only. *)

(* Style codes index the cost tables. *)
let styles = [| Resource.Normal; Resource.Tpg; Resource.Sa; Resource.Bilbo; Resource.Cbilbo |]

type index = {
  regs : (string, int) Hashtbl.t;
  gates : int array;  (* [5 * reg + code]: gates of that style there, I/O penalty included *)
  bad : bool array;  (* per code: the style is forbidden *)
}

let index ~model ~width ~forbidden ~io_penalty_percent dp =
  let regs = Hashtbl.create 32 in
  List.iter
    (fun (r : Datapath.reg) ->
      if not (Hashtbl.mem regs r.rid) then Hashtbl.add regs r.rid (Hashtbl.length regs))
    dp.Datapath.regs;
  let n = Hashtbl.length regs in
  let penalized = Array.make n false in
  if io_penalty_percent <> 100 then
    List.iter
      (fun (r : Datapath.reg) ->
        if r.dedicated then penalized.(Hashtbl.find regs r.rid) <- true)
      dp.Datapath.regs;
  let gates =
    Array.init (5 * n) (fun k ->
        let base = Resource.delta_gates model ~width styles.(k mod 5) in
        if penalized.(k / 5) then base * io_penalty_percent / 100 else base)
  in
  { regs; gates; bad = Array.map (fun s -> List.mem s forbidden) styles }

type indexed = { l : int; r : int; sa : int; e : Ipath.embedding }

let indexed idx (e : Ipath.embedding) =
  let reg = Hashtbl.find idx.regs in
  { l = reg e.l_tpg; r = reg e.r_tpg; sa = reg e.sa; e }

type engine = {
  gates : int array;
  bad : bool array;
  gen : int array;  (* TPG duties *)
  comp : int array;  (* SA duties *)
  both : int array;  (* units for which the register is TPG and SA *)
  code : int array;  (* style code of the counts above *)
  mutable cost : int;
  mutable infeasible : int;  (* registers in a forbidden style *)
}

let engine (idx : index) =
  let n = Hashtbl.length idx.regs in
  { gates = idx.gates; bad = idx.bad; gen = Array.make n 0; comp = Array.make n 0;
    both = Array.make n 0; code = Array.make n 0; cost = 0; infeasible = 0 }

let restyle eng i =
  let after =
    if eng.both.(i) > 0 then 4
    else if eng.gen.(i) > 0 then if eng.comp.(i) > 0 then 3 else 1
    else if eng.comp.(i) > 0 then 2
    else 0
  in
  let before = eng.code.(i) in
  if after <> before then begin
    eng.code.(i) <- after;
    eng.cost <- eng.cost - eng.gates.((5 * i) + before) + eng.gates.((5 * i) + after);
    if eng.bad.(before) then eng.infeasible <- eng.infeasible - 1;
    if eng.bad.(after) then eng.infeasible <- eng.infeasible + 1
  end

let generate eng i ~sa d =
  eng.gen.(i) <- eng.gen.(i) + d;
  if i = sa then eng.both.(i) <- eng.both.(i) + d;
  restyle eng i

let compact eng i d =
  eng.comp.(i) <- eng.comp.(i) + d;
  restyle eng i

let apply eng x =
  generate eng x.l ~sa:x.sa 1;
  generate eng x.r ~sa:x.sa 1;
  compact eng x.sa 1

let unapply eng x =
  compact eng x.sa (-1);
  generate eng x.r ~sa:x.sa (-1);
  generate eng x.l ~sa:x.sa (-1)

(* Cost and feasibility of [x] on top of the current state. *)
let delta_of eng x =
  apply eng x;
  let c = eng.cost and ok = eng.infeasible = 0 in
  unapply eng x;
  (c, ok)

(* Greedy step: apply and return the embedding with the smallest
   feasible cost increase (the first on ties), if any. *)
let greedy_pick eng es =
  let best = ref None in
  Array.iter
    (fun x ->
      let c, ok = delta_of eng x in
      if ok then
        match !best with Some (bc, _) when bc <= c -> () | _ -> best := Some (c, x))
    es;
  Option.map
    (fun (_, x) ->
      apply eng x;
      x)
    !best

(* The one costing path: embeddings sorted by unit, every register's
   style and the total cost. *)
let costed idx dp embeddings =
  let eng = engine idx in
  let embeddings =
    List.sort (fun (a : Ipath.embedding) b -> compare a.mid b.mid) embeddings
  in
  List.iter (fun e -> apply eng (indexed idx e)) embeddings;
  {
    embeddings;
    styles =
      List.map
        (fun (r : Datapath.reg) -> (r.rid, styles.(eng.code.(Hashtbl.find idx.regs r.rid))))
        dp.Datapath.regs;
    untestable = [];
    delta_gates = eng.cost;
    exact = true;
  }

let solution_of ~model ~width dp =
  let idx = index ~model ~width ~forbidden:[] ~io_penalty_percent:100 dp in
  costed idx dp

(* Ample to prove every paper design optimal; bounds large generated ones. *)
let node_cap = 200_000

let solve ?(model = Area.default) ?(width = 8) ?(forbidden = [])
    ?(io_penalty_percent = 100) ?(transparency = false) ?(budget = Budget.unlimited) dp =
  let idx = index ~model ~width ~forbidden ~io_penalty_percent dp in
  let units =
    dp.Datapath.massign.Massign.units
    |> List.filter (fun (u : Massign.hw) ->
           Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
  in
  let with_embeddings =
    List.map (fun (u : Massign.hw) -> (u.mid, Ipath.embeddings ~transparency dp u.mid)) units
  in
  let untestable =
    List.filter_map (fun (m, es) -> if es = [] then Some m else None) with_embeddings
  in
  Telemetry.incr "bist.units" ~by:(List.length with_embeddings);
  Telemetry.incr "bist.embedding_candidates"
    ~by:(Listx.sum_by (fun (_, es) -> List.length es) with_embeddings);
  let eng = engine idx in
  (* Order: units with fewest embeddings first; within a unit, embeddings
     sorted by their cost against the empty state (cheap first). *)
  let arr =
    List.filter (fun (_, es) -> es <> []) with_embeddings
    |> List.map (fun (m, es) ->
           let keyed =
             List.map
               (fun e ->
                 let x = indexed idx e in
                 ((fst (delta_of eng x), e), x))
               es
           in
           let sorted = List.sort (fun (a, _) (b, _) -> compare a b) keyed in
           (m, Array.of_list (List.map snd sorted)))
    |> List.sort (fun (_, a) (_, b) -> compare (Array.length a) (Array.length b))
    |> Array.of_list
  in
  let n = Array.length arr in
  (* Greedy warm start: take, per unit in order, the embedding with the
     smallest feasible cost increase. *)
  let greedy = Array.map (fun (_, es) -> greedy_pick eng es) arr in
  let best_cost = ref (if Array.exists Option.is_none greedy then max_int else eng.cost) in
  let best =
    ref
      (if !best_cost = max_int then None
       else Some (Array.to_list greedy |> List.filter_map (Option.map (fun x -> x.e))))
  in
  let eng = engine idx in
  let chosen = Array.make n 0 in
  let nodes = ref 0 in
  let exhausted = ref false in
  let rec branch i =
    if !nodes > node_cap || Budget.should_stop budget then exhausted := true
    else if i = n then begin
      Inject.fire "allocator.leaf";
      if eng.infeasible = 0 && eng.cost < !best_cost then begin
        best_cost := eng.cost;
        best := Some (List.init n (fun j -> (snd arr.(j)).(chosen.(j)).e))
      end
    end
    else begin
      (* The partial's cost is the same before every sibling and the
         bound only falls, so the first failed test ends the loop. *)
      let es = snd arr.(i) in
      let k = ref 0 in
      while !k < Array.length es && (not !exhausted) && eng.cost < !best_cost do
        incr nodes;
        Budget.node budget;
        apply eng es.(!k);
        chosen.(i) <- !k;
        (* A later embedding can never remove a duty, so a partial
           already using a forbidden style cannot recover: prune. *)
        if eng.infeasible = 0 then branch (i + 1);
        unapply eng es.(!k);
        incr k
      done
    end
  in
  (* Counted once, and also when a leaf's fault injection unwinds. *)
  Fun.protect
    ~finally:(fun () ->
      if !nodes > 0 then Telemetry.incr "bist.embeddings_explored" ~by:!nodes)
    (fun () -> branch 0);
  (* If nothing feasible was found under the constraints, drop units one
     by one (most-embeddings last) until a feasible core remains. *)
  let chosen_embeddings, extra_untestable =
    match !best with
    | Some es -> (es, [])
    | None ->
      let rec shrink dropped = function
        | [] -> ([], dropped)
        | (mid, _) :: rest ->
          let eng = engine idx in
          let rec pick acc = function
            | [] -> Some (List.rev acc)
            | (_, es) :: tl -> (
              match greedy_pick eng es with Some x -> pick (x.e :: acc) tl | None -> None)
          in
          (match pick [] rest with
           | Some es -> (es, dropped @ [ mid ])
           | None -> shrink (dropped @ [ mid ]) rest)
      in
      shrink [] (Array.to_list arr)
  in
  let sol = costed idx dp chosen_embeddings in
  (* CBILBO-requiring embeddings that were on the table but not picked. *)
  let cbilbos l = List.length (List.filter Ipath.requires_cbilbo l) in
  Telemetry.incr "bist.cbilbos_avoided"
    ~by:(max 0 (cbilbos (List.concat_map snd with_embeddings) - cbilbos sol.embeddings));
  { sol with untestable = List.sort compare (untestable @ extra_untestable); exact = not !exhausted }

let style_counts sol =
  [ Resource.Cbilbo; Resource.Bilbo; Resource.Tpg; Resource.Sa ]
  |> List.filter_map (fun s ->
         match List.length (List.filter (fun (_, s') -> s' = s) sol.styles) with
         | 0 -> None
         | n -> Some (s, n))

let overhead_percent ?(model = Area.default) ?(width = 8) dp sol =
  let base = Area.functional_gates model ~width dp in
  if base = 0 then 0.0 else 100.0 *. float_of_int sol.delta_gates /. float_of_int base

let pp_solution ppf sol =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (e : Ipath.embedding) ->
      let via = function None -> "" | Some u -> Printf.sprintf " (via %s)" u in
      Format.fprintf ppf "test %s: TPG L=%s%s R=%s%s, SA=%s%s@," e.mid e.l_tpg
        (via e.l_via) e.r_tpg (via e.r_via) e.sa
        (if Ipath.requires_cbilbo e then " (CBILBO)" else ""))
    sol.embeddings;
  List.iter
    (fun (rid, s) ->
      if s <> Resource.Normal then
        Format.fprintf ppf "%s: %s@," rid (Resource.style_label s))
    sol.styles;
  if sol.untestable <> [] then
    Format.fprintf ppf "untestable: %s@," (String.concat ", " sol.untestable);
  Format.fprintf ppf "delta gates: %d%s@]" sol.delta_gates
    (if sol.exact then "" else " (search truncated)")
