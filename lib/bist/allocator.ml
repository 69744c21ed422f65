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

(* Session conflicts, by number. A unit under test is its embedding's
   registers, its rank in session order and the ranks of the units its
   patterns pass through (-1: none, or not under test). *)
type tested = { l : int; r : int; sa : int; rank : int; l_via : int; r_via : int }

let cbilbo = 4

(* The session conflict rule, its one implementation: a shared SA
   register, a register generating for one unit while compacting for
   the other unless it is a CBILBO, or a unit that is the other's
   transparent pattern channel. *)
let conflict code a b =
  a.sa = b.sa
  || ((b.sa = a.l || b.sa = a.r) && code.(b.sa) <> cbilbo)
  || ((a.sa = b.l || a.sa = b.r) && code.(a.sa) <> cbilbo)
  || a.l_via = b.rank || a.r_via = b.rank || b.l_via = a.rank || b.r_via = a.rank

(* First-fit in array order: each unit takes the lowest session that no
   earlier unit it conflicts with holds. Fills [session], returns the
   number of sessions. *)
let first_fit code ts session =
  let n = Array.length ts in
  let used = Array.make (n + 1) false in
  let count = ref 0 in
  for i = 0 to n - 1 do
    Array.fill used 0 (i + 1) false;
    for j = 0 to i - 1 do
      if conflict code ts.(i) ts.(j) then used.(session.(j)) <- true
    done;
    let s = ref 0 in
    while used.(!s) do incr s done;
    session.(i) <- !s;
    if !s >= !count then count := !s + 1
  done;
  !count

let sessions (sol : solution) =
  let regs = Hashtbl.create 16 in
  let reg rid =
    match Hashtbl.find_opt regs rid with
    | Some i -> i
    | None ->
      let i = Hashtbl.length regs in
      Hashtbl.add regs rid i;
      i
  in
  let es = Array.of_list sol.embeddings in
  let ranks = Hashtbl.create 16 in
  Array.iteri (fun i (e : Ipath.embedding) -> Hashtbl.replace ranks e.mid i) es;
  let rank = function
    | None -> -1
    | Some mid -> Option.value (Hashtbl.find_opt ranks mid) ~default:(-1)
  in
  let ts =
    Array.mapi
      (fun i (e : Ipath.embedding) ->
        { l = reg e.l_tpg; r = reg e.r_tpg; sa = reg e.sa; rank = i; l_via = rank e.l_via;
          r_via = rank e.r_via })
      es
  in
  let code = Array.make (Hashtbl.length regs) 0 in
  Hashtbl.iter
    (fun rid i ->
      if List.assoc_opt rid sol.styles = Some Resource.Cbilbo then code.(i) <- cbilbo)
    regs;
  let session = Array.make (Array.length es) 0 in
  ignore (first_fit code ts session);
  session

(* Units with operations bound to them, each with its embeddings. *)
let unit_embeddings ~transparency dp =
  dp.Datapath.massign.Massign.units
  |> List.filter (fun (u : Massign.hw) ->
         Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
  |> List.map (fun (u : Massign.hw) -> (u.mid, Ipath.embeddings ~transparency dp u.mid))

type leaf = {
  eng : engine;
  ts : tested array;  (* the chosen embeddings, in session (unit id) order *)
  session : int array;  (* first-fit work array *)
  mutable chosen : Ipath.embedding list;  (* last unit first *)
}

let leaf_gates leaf = leaf.eng.cost
let leaf_sessions leaf = first_fit leaf.eng.code leaf.ts leaf.session
let leaf_embeddings leaf = leaf.chosen

let walk ~model ~width ~transparency dp ~descend f =
  let idx = index ~model ~width ~forbidden:[] ~io_penalty_percent:100 dp in
  let units =
    unit_embeddings ~transparency dp
    |> List.filter (fun (_, es) -> es <> [])
    |> Array.of_list
  in
  let n = Array.length units in
  (* A unit's rank is its place in session order, which is [solution_of]'s
     embedding order: by unit id. *)
  let by_id = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare (fst units.(i)) (fst units.(j))) by_id;
  let rank = Array.make n 0 in
  Array.iteri (fun k i -> rank.(i) <- k) by_id;
  let rank_of = function
    | None -> -1
    | Some mid -> (
      match Array.find_index (fun (m, _) -> m = mid) units with
      | Some i -> rank.(i)
      | None -> -1)
  in
  let options =
    Array.mapi
      (fun i (_, es) ->
        Array.of_list
          (List.map
             (fun (e : Ipath.embedding) ->
               let x = indexed idx e in
               ( x,
                 { l = x.l; r = x.r; sa = x.sa; rank = rank.(i); l_via = rank_of e.l_via;
                   r_via = rank_of e.r_via } ))
             es))
      units
  in
  let leaf =
    { eng = engine idx;
      ts = Array.make n { l = 0; r = 0; sa = 0; rank = 0; l_via = -1; r_via = -1 };
      session = Array.make n 0; chosen = [] }
  in
  (* Depth first, first unit outermost, each unit's embeddings in order;
     [descend] is asked before every internal node's children. *)
  let rec go i =
    if i = n then f leaf
    else if descend () then
      Array.iter
        (fun (x, t) ->
          apply leaf.eng x;
          leaf.ts.(rank.(i)) <- t;
          let parent = leaf.chosen in
          leaf.chosen <- x.e :: parent;
          go (i + 1);
          leaf.chosen <- parent;
          unapply leaf.eng x)
        options.(i)
  in
  go 0

(* Ample to prove every paper design optimal; bounds large generated ones. *)
let node_cap = 200_000

(* A unit's options in search order: by cost against the empty state,
   then by the embedding's fields in record order as ranks in
   [String.compare] order ([None] first), which within one unit is
   [compare] on (cost, embedding). The register ranks pack 20 bits each
   into one int, the unit ranks 30 bits each into another. *)
let options eng idx ~reg_rank ~via_rank es =
  List.map
    (fun e ->
      let x = indexed idx e in
      ( fst (delta_of eng x),
        (reg_rank.(x.l) lsl 40) lor (reg_rank.(x.r) lsl 20) lor reg_rank.(x.sa),
        ((via_rank e.l_via + 1) lsl 30) lor (via_rank e.r_via + 1),
        x ))
    es
  |> List.stable_sort (fun (c, p, q, _) (c', p', q', _) ->
         if c <> c' then Int.compare c c'
         else if p <> p' then Int.compare p p'
         else Int.compare q q')
  |> List.map (fun (_, _, _, x) -> x)
  |> Array.of_list

(* Rank of each register number by name. *)
let name_ranks (idx : index) =
  let rank = Array.make (Hashtbl.length idx.regs) 0 in
  Hashtbl.fold (fun rid i acc -> (rid, i) :: acc) idx.regs []
  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iteri (fun k (_, i) -> rank.(i) <- k);
  rank

(* The bound memo. A register's style code is its three [> 0] tests
   (generates, compacts, both for one unit), and [restyle] reads nothing
   else, so two entries to level [i] whose codes agree on every register
   an option of units [i..n-1] touches face the same cost increments and
   the same infeasible completions. A level whose registers fit 3 bits
   each in an int ([memo_regs] of them) packs those codes into its key;
   level 0 is entered once and is not keyed. *)
let memo_regs = 20

(* Below this many leaves in the whole product the search is cheaper
   than setting the memo up. *)
let memo_min_leaves = 1024

(* Open addressing from a level's packed key to the bound recorded for
   it; keys are never negative, so -1 marks a free slot. Tables start
   empty and double at half full. *)
type bounds = { mutable keys : int array; mutable lbs : int array; mutable size : int }

let bounds () = { keys = [||]; lbs = [||]; size = 0 }

(* The slot holding [key], or the free slot it would take. *)
let slot t key =
  let mask = Array.length t.keys - 1 in
  let rec probe h =
    let k = t.keys.(h) in
    if k = key || k = -1 then h else probe ((h + 1) land mask)
  in
  probe (((key * 0x2545F4914F6CDD1D) lsr 24) land mask)

(* The bound recorded for [key], [min_int] if none. *)
let bound t key =
  if t.size = 0 then min_int
  else
    let h = slot t key in
    if t.keys.(h) = key then t.lbs.(h) else min_int

(* Keeps the larger of two bounds for one key: both hold. *)
let rec record t key lb =
  if 2 * (t.size + 1) > Array.length t.keys then begin
    let keys = t.keys and lbs = t.lbs in
    let size = max 16 (2 * Array.length keys) in
    t.keys <- Array.make size (-1);
    t.lbs <- Array.make size 0;
    t.size <- 0;
    Array.iteri (fun h k -> if k <> -1 then record t k lbs.(h)) keys
  end;
  let h = slot t key in
  if t.keys.(h) = key then (if lb > t.lbs.(h) then t.lbs.(h) <- lb)
  else begin
    t.keys.(h) <- key;
    t.lbs.(h) <- lb;
    t.size <- t.size + 1
  end

(* Per level, the registers an option of its unit or a later one
   touches, in key order; level 0, levels past [memo_regs] registers and
   every level of a product under [memo_min_leaves] get none. *)
let key_registers (idx : index) (units : indexed array array) =
  let n = Array.length units in
  let key_regs = Array.make n [||] in
  let leaves =
    Array.fold_left (fun p es -> min memo_min_leaves (p * Array.length es)) 1 units
  in
  if leaves >= memo_min_leaves then begin
    let seen = Array.make (Hashtbl.length idx.regs) false in
    let touched = ref [] in
    let touch r =
      if not seen.(r) then begin
        seen.(r) <- true;
        touched := r :: !touched
      end
    in
    for i = n - 1 downto 1 do
      Array.iter
        (fun (x : indexed) ->
          touch x.l;
          touch x.r;
          touch x.sa)
        units.(i);
      if List.compare_length_with !touched memo_regs <= 0 then
        key_regs.(i) <- Array.of_list !touched
    done
  end;
  key_regs

let solve ?(model = Area.default) ?(width = 8) ?(forbidden = [])
    ?(io_penalty_percent = 100) ?(transparency = false) ?(budget = Budget.unlimited) dp =
  let idx = index ~model ~width ~forbidden ~io_penalty_percent dp in
  let with_embeddings = unit_embeddings ~transparency dp in
  let untestable =
    List.filter_map (fun (m, es) -> if es = [] then Some m else None) with_embeddings
  in
  Telemetry.incr "bist.units" ~by:(List.length with_embeddings);
  Telemetry.incr "bist.embedding_candidates"
    ~by:(Listx.sum_by (fun (_, es) -> List.length es) with_embeddings);
  let eng = engine idx in
  let reg_rank = name_ranks idx in
  (* Only transparency puts units on a pattern path. *)
  let vias =
    if not transparency then [||]
    else
      List.concat_map
        (fun (_, es) ->
          List.concat_map
            (fun (e : Ipath.embedding) -> Option.to_list e.l_via @ Option.to_list e.r_via)
            es)
        with_embeddings
      |> List.sort_uniq String.compare |> Array.of_list
  in
  let via_rank = function
    | None -> -1
    | Some mid -> Option.get (Array.find_index (String.equal mid) vias)
  in
  (* Order: units with fewest embeddings first; within a unit, embeddings
     sorted by their cost against the empty state (cheap first). *)
  let arr =
    List.filter (fun (_, es) -> es <> []) with_embeddings
    |> List.map (fun (m, es) -> (m, options eng idx ~reg_rank ~via_rank es))
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare (Array.length a) (Array.length b))
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
  let key_regs = key_registers idx (Array.map snd arr) in
  let memo = Array.init n (fun _ -> bounds ()) in
  let key i =
    let rs = key_regs.(i) in
    if Array.length rs = 0 then -1
    else begin
      let k = ref 0 in
      for j = 0 to Array.length rs - 1 do
        k := (!k lsl 3) lor eng.code.(rs.(j))
      done;
      !k
    end
  in
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
      let partial = eng.cost in
      (* A partial at the bound has no child; otherwise, an equal-keyed
         subtree searched to the end found every leaf [lb] or more above
         its entry cost, or cut it off at a bound that high: if this one
         is no further below the best, it holds no leaf strictly cheaper. *)
      let key = if partial < !best_cost then key i else -1 in
      let skip = key >= 0 && bound memo.(i) key >= !best_cost - partial in
      if not skip then begin
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
        done;
        (* With no feasible leaf known, none lies below. *)
        if key >= 0 && not !exhausted then
          record memo.(i) key (if !best_cost = max_int then max_int else !best_cost - partial)
      end
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
  let offered = Listx.sum_by (fun (_, es) -> cbilbos es) with_embeddings in
  Telemetry.incr "bist.cbilbos_avoided" ~by:(max 0 (offered - cbilbos sol.embeddings));
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
