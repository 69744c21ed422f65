module Listx = Bistpath_util.Listx

type verdict = {
  mid : string;
  case_i : string list;
  case_ii : (string * string) list;
}

(* One register's Lemma-2 counters. Per unit: the out-variables it holds
   and the instances whose operand set it meets; per instance: whether
   it holds one of the instance's operands. Registers are disjoint, so these
   counts decide the lemma's set equalities: a register holds all of O_M
   iff [out = |O_M|], and two registers together hold O_M iff
   [ox + oy = |O_M|]. *)
type register = {
  rid : string;
  out : int array;
  covered : int array;
  met : bool array;
}

type t = {
  ctx : Sharing.ctx;
  mutable regs : register array;
  mutable offers : string list array option;
      (* per unit, the registers its verdict offers to the cover *)
  mutable count : int option;  (* the cover of [offers] *)
}

let create ctx = { ctx; regs = [||]; offers = None; count = None }

let open_register t rid =
  let nu = Array.length t.ctx.Sharing.unit_ids in
  let r =
    { rid; out = Array.make nu 0; covered = Array.make nu 0;
      met = Array.make (Array.length t.ctx.Sharing.instance_unit) false }
  in
  t.regs <- Array.append t.regs [| r |];
  t.offers <- None;
  t.count <- None

let add t i v =
  let ctx = t.ctx and r = t.regs.(i) in
  let om = ctx.Sharing.out_mask.(v) in
  Array.iteri (fun u c -> if om land (1 lsl u) <> 0 then r.out.(u) <- c + 1) r.out;
  Array.iter
    (fun k ->
      if not r.met.(k) then begin
        let u = ctx.Sharing.instance_unit.(k) in
        r.covered.(u) <- r.covered.(u) + 1;
        r.met.(k) <- true
      end)
    ctx.Sharing.operand_of.(v);
  t.offers <- None;
  t.count <- None

(* Lemma 2 for unit [u], reading register [i]'s counters through
   [counts i] = (out-variables held, instances covered). *)
let verdict_with t u counts =
  let ctx = t.ctx in
  let n_out = ctx.Sharing.out_count.(u) in
  let n_inst = Array.length ctx.Sharing.instances.(u) in
  let case_i = ref [] and partial = ref [] in
  for i = Array.length t.regs - 1 downto 0 do
    let out, covered = counts i in
    if covered = n_inst && out > 0 then
      if out = n_out then case_i := t.regs.(i).rid :: !case_i
      else partial := (t.regs.(i).rid, out) :: !partial
  done;
  let case_ii =
    Listx.pairs !partial
    |> List.filter_map (fun ((rx, ox), (ry, oy)) ->
           if ox + oy = n_out then Some (rx, ry) else None)
  in
  { mid = ctx.Sharing.unit_ids.(u); case_i = !case_i; case_ii }

let counts_of t u i = (t.regs.(i).out.(u), t.regs.(i).covered.(u))

let verdict t u = verdict_with t u (counts_of t u)

let forced v = v.case_i <> [] || v.case_ii <> []

let offer v =
  List.sort_uniq compare (v.case_i @ List.concat_map (fun (x, y) -> [ x; y ]) v.case_ii)

(* Greedy cover: each forced module offers candidate registers (case i
   registers, both members of case ii pairs); repeatedly commit the
   register covering the most remaining modules, the first in string
   order on a tie. *)
let rec cover count = function
  | [] -> count
  | remaining ->
    let candidates = List.sort_uniq compare (List.concat remaining) in
    let gain r = List.length (List.filter (List.mem r) remaining) in
    let best = Option.get (Listx.max_by gain candidates) in
    cover (count + 1) (List.filter (fun offer -> not (List.mem best offer)) remaining)

let offers t =
  match t.offers with
  | Some o -> o
  | None ->
    let o = Array.init (Array.length t.ctx.Sharing.unit_ids) (fun u -> offer (verdict t u)) in
    t.offers <- Some o;
    o

let min_count t =
  match t.count with
  | Some c -> c
  | None ->
    let c = cover 0 (List.filter (( <> ) []) (Array.to_list (offers t))) in
    t.count <- Some c;
    c

let min_count_with t i v =
  let ctx = t.ctx and r = t.regs.(i) in
  let om = ctx.Sharing.out_mask.(v) in
  let touched = om lor ctx.Sharing.in_mask.(v) in
  let newly_covered u =
    Array.fold_left
      (fun n k -> if ctx.Sharing.instance_unit.(k) = u && not r.met.(k) then n + 1 else n)
      0 ctx.Sharing.operand_of.(v)
  in
  let counts u j =
    if j <> i then counts_of t u j
    else
      ( (r.out.(u) + if om land (1 lsl u) <> 0 then 1 else 0),
        r.covered.(u) + newly_covered u )
  in
  (* A register enters a unit's verdict only if it covers every instance
     and holds an out-variable: when register i does so for no touched
     unit, before or after, every verdict and so the count stay as they
     are. *)
  let enters u ~out ~covered = covered = Array.length ctx.Sharing.instances.(u) && out > 0 in
  let rec moves u =
    u < Array.length ctx.Sharing.unit_ids
    && (touched land (1 lsl u) <> 0
        && (enters u ~out:r.out.(u) ~covered:r.covered.(u)
           || enters u
                ~out:(r.out.(u) + if om land (1 lsl u) <> 0 then 1 else 0)
                ~covered:(r.covered.(u) + newly_covered u))
       || moves (u + 1))
  in
  if not (moves 0) then min_count t
  else
    offers t
    |> Array.mapi (fun u o ->
           if touched land (1 lsl u) = 0 then o else offer (verdict_with t u (counts u)))
    |> Array.to_list
    |> List.filter (( <> ) [])
    |> cover 0

let of_classes ctx classes =
  let t = create ctx in
  List.iteri
    (fun i (rid, vars) ->
      open_register t rid;
      List.sort_uniq compare vars
      |> List.iter (fun v -> Option.iter (add t i) (Sharing.var_index ctx v)))
    classes;
  t

let verdicts ctx ~classes =
  let t = of_classes ctx classes in
  List.init (Array.length ctx.Sharing.unit_ids) (verdict t)
