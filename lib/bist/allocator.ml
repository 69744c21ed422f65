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

(* The indexed engine. Registers are numbered once ({!Ipath.registers})
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

let index ~model ~width ~forbidden ~io_penalty_percent dp names =
  let regs = Hashtbl.create (Array.length names) in
  Array.iteri (fun i rid -> Hashtbl.replace regs rid i) names;
  let n = Array.length names in
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

(* An option is an embedding of one unit as its positions in the unit's
   row, packed 20 bits each into one int: left, right, SA. *)
let pack li ri si = (li lsl 40) lor (ri lsl 20) lor si
let mask = (1 lsl 20) - 1
let l_of (row : Ipath.row) x = row.left.(x lsr 40)
let r_of (row : Ipath.row) x = row.right.((x lsr 20) land mask)
let sa_of (row : Ipath.row) x = row.sas.(x land mask)
let embedding_of table row x =
  Ipath.embedding table row (x lsr 40) ((x lsr 20) land mask) (x land mask)

(* A row's options, its left sources taken in the order of the
   positions [ls], for each the right sources in the order [rs]
   (skipping the left one), for each the SA registers in the order
   [sas]. *)
let product (row : Ipath.row) ls rs sas =
  let xs = Array.make (Ipath.embedding_count row) 0 in
  let k = ref 0 in
  for a = 0 to Array.length ls - 1 do
    for b = 0 to Array.length rs - 1 do
      if row.left.(ls.(a)) <> row.right.(rs.(b)) then
        for c = 0 to Array.length sas - 1 do
          xs.(!k) <- pack ls.(a) rs.(b) sas.(c);
          incr k
        done
    done
  done;
  xs

(* Positions in array order: with [product], I-path order. *)
let positions a = Array.init (Array.length a) Fun.id

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

let apply eng l r sa =
  generate eng l ~sa 1;
  generate eng r ~sa 1;
  compact eng sa 1

let unapply eng l r sa =
  compact eng sa (-1);
  generate eng r ~sa (-1);
  generate eng l ~sa (-1)

let apply_option eng row x = apply eng (l_of row x) (r_of row x) (sa_of row x)
let unapply_option eng row x = unapply eng (l_of row x) (r_of row x) (sa_of row x)

(* Greedy step: apply the option with the smallest feasible cost
   increase (the first on ties) and return its position, if any. *)
let greedy_pick eng row xs =
  let best = ref (-1) and best_cost = ref 0 in
  for k = 0 to Array.length xs - 1 do
    let l = l_of row xs.(k) and r = r_of row xs.(k) and sa = sa_of row xs.(k) in
    apply eng l r sa;
    let c = eng.cost and ok = eng.infeasible = 0 in
    unapply eng l r sa;
    if ok && (!best < 0 || c < !best_cost) then begin
      best := k;
      best_cost := c
    end
  done;
  if !best < 0 then None
  else begin
    apply_option eng row xs.(!best);
    Some !best
  end

(* The one costing path: embeddings sorted by unit, every register's
   style and the total cost. *)
let costed idx dp embeddings =
  let eng = engine idx in
  let embeddings =
    List.sort (fun (a : Ipath.embedding) b -> compare a.mid b.mid) embeddings
  in
  let reg = Hashtbl.find idx.regs in
  List.iter
    (fun (e : Ipath.embedding) -> apply eng (reg e.l_tpg) (reg e.r_tpg) (reg e.sa))
    embeddings;
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

let solution_of ~width dp =
  let idx =
    index ~model:Area.default ~width ~forbidden:[] ~io_penalty_percent:100 dp
      (Ipath.registers dp)
  in
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

(* The rows of units with operations bound to them, in module-assignment
   order. *)
let active_rows dp (table : Ipath.table) =
  Array.to_list table.rows
  |> List.filter (fun (row : Ipath.row) ->
         Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg row.unit > 0)

type leaf = {
  eng : engine;
  ts : tested array;  (* the chosen embeddings, in session order *)
  session : int array;  (* first-fit work array *)
}

let leaf_gates leaf = leaf.eng.cost
let leaf_sessions leaf = first_fit leaf.eng.code leaf.ts leaf.session

let walk ~width ~transparency dp ~bound ~descend ~beyond f =
  let table = Ipath.table ~transparency dp in
  let idx =
    index ~model:Area.default ~width ~forbidden:[] ~io_penalty_percent:100 dp table.regs
  in
  let rows = active_rows dp table |> List.filter Ipath.embeddable |> Array.of_list in
  let n = Array.length rows in
  (* A unit's rank is its place in session order, which is [solution_of]'s
     embedding order: by unit id. *)
  let by_id = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare rows.(i).unit rows.(j).unit) by_id;
  let rank = Array.make n 0 in
  Array.iteri (fun k i -> rank.(i) <- k) by_id;
  (* A channel's rank, by its table row; -1 if it is not under test. *)
  let via_rank =
    Array.map
      (fun (u : Ipath.row) ->
        match Array.find_index (fun (row : Ipath.row) -> String.equal row.unit u.unit) rows with
        | Some i -> rank.(i)
        | None -> -1)
      table.rows
  in
  let of_via v = if v < 0 then -1 else via_rank.(v) in
  (* Each unit's options in I-path order. *)
  let tested =
    Array.mapi
      (fun i (row : Ipath.row) ->
        Array.map
          (fun x ->
            { l = l_of row x; r = r_of row x; sa = sa_of row x; rank = rank.(i);
              l_via = of_via row.left_via.(x lsr 40);
              r_via = of_via row.right_via.((x lsr 20) land mask) })
          (product row (positions row.left) (positions row.right) (positions row.sas)))
      rows
  in
  let leaf =
    { eng = engine idx;
      ts = Array.make n { l = 0; r = 0; sa = 0; rank = 0; l_via = -1; r_via = -1 };
      session = Array.make n 0 }
  in
  (* Below a partial past the bound every leaf is past it too, since a
     later embedding never lowers a style: the subtree is only counted,
     asking [descend] as the full walk would. *)
  let rec count_only i =
    if i = n then beyond ()
    else if descend () then
      for _ = 1 to Array.length tested.(i) do
        count_only (i + 1)
      done
  in
  (* Depth first, first unit outermost, each unit's options in order;
     [descend] is asked before every internal node's children. *)
  let rec go i =
    if i = n then f leaf
    else if descend () then
      Array.iter
        (fun t ->
          apply leaf.eng t.l t.r t.sa;
          if leaf.eng.cost > bound then count_only (i + 1)
          else begin
            leaf.ts.(rank.(i)) <- t;
            go (i + 1)
          end;
          unapply leaf.eng t.l t.r t.sa)
        tested.(i)
  in
  go 0

(* Ample to prove every paper design optimal; bounds large generated ones. *)
let node_cap = 200_000

(* Rank of each register number by name. *)
let name_ranks (names : string array) =
  let order = Array.init (Array.length names) Fun.id in
  Array.sort (fun i j -> String.compare names.(i) names.(j)) order;
  let rank = Array.make (Array.length names) 0 in
  Array.iteri (fun k i -> rank.(i) <- k) order;
  rank

(* The bound memo. A register's style code is its three [> 0] tests
   (generates, compacts, both for one unit), and [restyle] reads nothing
   else, so two entries to level [i] whose codes agree on every register
   an option of units [i..n-1] touches face the same cost increments and
   the same infeasible completions. A level whose registers fit 3 bits
   each in an int ([memo_regs] of them) packs those codes into its key;
   level 0 is entered once and is not keyed. *)
let memo_regs = 20

(* Per level, the registers an option of its unit or a later one
   touches, in key order; level 0 and levels past [memo_regs] registers
   get none. *)
let key_registers (idx : index) (units : (Ipath.row * int array) array) =
  let n = Array.length units in
  let key_regs = Array.make n [||] in
  let seen = Array.make (Hashtbl.length idx.regs) false in
  let touched = ref [] in
  let touch r =
    if not seen.(r) then begin
      seen.(r) <- true;
      touched := r :: !touched
    end
  in
  for i = n - 1 downto 1 do
    let row, xs = units.(i) in
    Array.iter
      (fun x ->
        touch (l_of row x);
        touch (r_of row x);
        touch (sa_of row x))
      xs;
    if List.compare_length_with !touched memo_regs <= 0 then
      key_regs.(i) <- Array.of_list !touched
  done;
  key_regs

(* The units [solve] searches and their options, both in search order:
   units with fewest embeddings first, in module-assignment order on
   ties; a unit's embeddings by their cost against the empty state,
   then by their registers' ranks in [String.compare] order. No two
   embeddings of one unit share all three registers, so this is
   [compare] on (cost, embedding), whose via fields never decide. The
   product is enumerated in rank order and then sorted stably by cost
   in one counting pass, over the narrow range of gate counts three
   registers can add. *)
let plan (idx : index) (table : Ipath.table) rows =
  let reg_rank = name_ranks table.regs in
  let by_rank regs =
    let order = Array.init (Array.length regs) Fun.id in
    Array.sort (fun a b -> Int.compare reg_rank.(regs.(a)) reg_rank.(regs.(b))) order;
    order
  in
  let gates i code = idx.gates.((5 * i) + code) in
  (* The engine's cost after applying [x] alone: the TPGs are TPGs
     (1), the SA register an SA (2), or a CBILBO (4) if it is a TPG. *)
  let cost row x =
    let l = l_of row x and r = r_of row x and sa = sa_of row x in
    if sa = l then gates l 4 + gates r 1
    else if sa = r then gates l 1 + gates r 4
    else gates l 1 + gates r 1 + gates sa 2
  in
  let options (row : Ipath.row) =
    let xs = product row (by_rank row.left) (by_rank row.right) (by_rank row.sas) in
    let m = Array.length xs in
    let costs = Array.make m 0 and lo = ref max_int and hi = ref min_int in
    for k = 0 to m - 1 do
      let c = cost row xs.(k) in
      costs.(k) <- c;
      lo := Int.min !lo c;
      hi := Int.max !hi c
    done;
    (* [start.(c - lo)]: where the next option of cost [c] goes *)
    let start = Array.make (!hi - !lo + 2) 0 in
    for k = 0 to m - 1 do
      start.(costs.(k) - !lo + 1) <- start.(costs.(k) - !lo + 1) + 1
    done;
    for c = 1 to Array.length start - 1 do
      start.(c) <- start.(c) + start.(c - 1)
    done;
    let sorted = Array.make m 0 in
    for k = 0 to m - 1 do
      let c = costs.(k) - !lo in
      sorted.(start.(c)) <- xs.(k);
      start.(c) <- start.(c) + 1
    done;
    sorted
  in
  List.filter Ipath.embeddable rows
  |> List.map (fun row -> (row, options row))
  |> List.stable_sort (fun (_, a) (_, b) -> Int.compare (Array.length a) (Array.length b))
  |> Array.of_list

let setup ~model ~width ~forbidden ~io_penalty_percent ~transparency dp =
  let table = Ipath.table ~transparency dp in
  (table, index ~model ~width ~forbidden ~io_penalty_percent dp table.regs, active_rows dp table)

let search_order ?(width = 8) ?(io_penalty_percent = 100) ?(transparency = false) dp =
  let table, idx, rows =
    setup ~model:Area.default ~width ~forbidden:[] ~io_penalty_percent ~transparency dp
  in
  plan idx table rows
  |> Array.to_list
  |> List.map (fun ((row : Ipath.row), xs) ->
         (row.unit, List.map (embedding_of table row) (Array.to_list xs)))

let solve ?(model = Area.default) ?(width = 8) ?(forbidden = [])
    ?(io_penalty_percent = 100) ?(transparency = false) ?(budget = Budget.unlimited) dp =
  let table, idx, rows = setup ~model ~width ~forbidden ~io_penalty_percent ~transparency dp in
  let untestable =
    List.filter_map
      (fun (row : Ipath.row) -> if Ipath.embeddable row then None else Some row.unit)
      rows
  in
  Telemetry.incr "bist.units" ~by:(List.length rows);
  Telemetry.incr "bist.embedding_candidates" ~by:(Listx.sum_by Ipath.embedding_count rows);
  let arr = plan idx table rows in
  let n = Array.length arr in
  let embedding i k =
    let row, xs = arr.(i) in
    embedding_of table row xs.(k)
  in
  (* Greedy warm start: take, per unit in order, the embedding with the
     smallest feasible cost increase. *)
  let eng = engine idx in
  let greedy = Array.map (fun (row, xs) -> greedy_pick eng row xs) arr in
  let best_cost = ref (if Array.exists Option.is_none greedy then max_int else eng.cost) in
  let best = ref (if !best_cost = max_int then None else Some (Array.map Option.get greedy)) in
  let eng = engine idx in
  let key_regs = key_registers idx arr in
  let memo = Array.init n (fun _ -> Hashtbl.create 16) in
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
        best := Some (Array.copy chosen)
      end
    end
    else begin
      let partial = eng.cost in
      (* A partial at the bound has no child; otherwise, an equal-keyed
         subtree searched to the end found every leaf [lb] or more above
         its entry cost, or cut it off at a bound that high: if this one
         is no further below the best, it holds no leaf strictly cheaper. *)
      let key = if partial < !best_cost then key i else -1 in
      let skip =
        key >= 0
        && match Hashtbl.find_opt memo.(i) key with
           | Some lb -> lb >= !best_cost - partial
           | None -> false
      in
      if not skip then begin
        (* The partial's cost is the same before every sibling and the
           bound only falls, so the first failed test ends the loop. *)
        let row, xs = arr.(i) in
        let k = ref 0 in
        while !k < Array.length xs && (not !exhausted) && eng.cost < !best_cost do
          incr nodes;
          Budget.node budget;
          apply_option eng row xs.(!k);
          chosen.(i) <- !k;
          (* A later embedding can never remove a duty, so a partial
             already using a forbidden style cannot recover: prune. *)
          if eng.infeasible = 0 then branch (i + 1);
          unapply_option eng row xs.(!k);
          incr k
        done;
        (* With no feasible leaf known, none lies below. Of two bounds
           for one key both hold, so the larger is kept. *)
        if key >= 0 && not !exhausted then begin
          let lb = if !best_cost = max_int then max_int else !best_cost - partial in
          match Hashtbl.find_opt memo.(i) key with
          | Some old when old >= lb -> ()
          | _ -> Hashtbl.replace memo.(i) key lb
        end
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
    | Some ks -> (List.init n (fun i -> embedding i ks.(i)), [])
    | None ->
      let rec shrink dropped i =
        if i = n then ([], dropped)
        else
          let dropped = dropped @ [ (fst arr.(i)).unit ] in
          let eng = engine idx in
          let rec pick acc j =
            if j = n then Some (List.rev acc)
            else
              match greedy_pick eng (fst arr.(j)) (snd arr.(j)) with
              | Some k -> pick (embedding j k :: acc) (j + 1)
              | None -> None
          in
          match pick [] (i + 1) with Some es -> (es, dropped) | None -> shrink dropped (i + 1)
      in
      shrink [] 0
  in
  let sol = costed idx dp chosen_embeddings in
  (* CBILBO-requiring embeddings that were on the table but not picked. *)
  let picked = List.length (List.filter Ipath.requires_cbilbo sol.embeddings) in
  Telemetry.incr "bist.cbilbos_avoided"
    ~by:(max 0 (Listx.sum_by Ipath.cbilbo_count rows - picked));
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
