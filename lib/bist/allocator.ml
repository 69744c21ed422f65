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

let solve ?(model = Area.default) ?(width = 8) ?(forbidden = [])
    ?(io_penalty_percent = 100) ?(transparency = false) ?(budget = Budget.unlimited) dp =
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
    List.map (fun (u : Massign.hw) -> (u.mid, Ipath.embeddings ~transparency dp u.mid)) units
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
  let best_cost = ref greedy_cost in
  let best = ref (if greedy_cost = max_int then None else Some (Array.to_list greedy |> List.filter_map Fun.id)) in
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
  (* If nothing feasible was found under the constraints, drop units one
     by one (most-embeddings last) until a feasible core remains. *)
  let chosen_embeddings, extra_untestable =
    match !best with
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
  {
    embeddings;
    styles;
    untestable = List.sort compare (untestable @ extra_untestable);
    delta_gates = eng3.cost;
    exact = not !exhausted;
  }

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
