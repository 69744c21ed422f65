module Lifetime = Bistpath_dfg.Lifetime
module Chordal = Bistpath_graphs.Chordal
module Ugraph = Bistpath_graphs.Ugraph
module Regalloc = Bistpath_datapath.Regalloc
module Telemetry = Bistpath_telemetry.Telemetry

type options = {
  sd_ordering : bool;
  case_preferences : bool;
  cbilbo_avoidance : bool;
}

let default_options =
  { sd_ordering = true; case_preferences = true; cbilbo_avoidance = true }

type trace_step = {
  vertex : string;
  chosen : string;
  fresh : bool;
  reason : string;
}

(* One register under construction: its variables (newest first) and
   the union of their I_M and O_M unit masks. A register's sharing degree
   is the popcount of both masks. *)
type reg = {
  rid : string;
  mutable vars : string list;
  mutable ins : int;
  mutable outs : int;
}

(* The conflict graph with each of its vertices' index in the design's
   sharing view. *)
let indexed sharing dfg massign ~policy =
  let g, idx = Lifetime.conflict_graph ~policy dfg in
  let ctx = match sharing with Some c -> c | None -> Sharing.make dfg massign in
  let var =
    Array.init idx.Lifetime.count (fun i ->
        Option.get (Sharing.var_index ctx (idx.Lifetime.of_index i)))
  in
  (g, idx, ctx, var)

(* Vertices in coloring order: the reverse of a PVES selected by
   sharing degree, then max-clique size, then name. *)
let coloring_order options g idx ctx var =
  List.rev
    (if options.sd_ordering then begin
       let mcs = Array.make idx.Lifetime.count 1 in
       List.iter (fun (i, m) -> mcs.(i) <- m) (Chordal.max_clique_size_per_vertex g);
       Chordal.peo_with_preference g ~key:(fun i ->
           (ctx.Sharing.sd.(var.(i)), mcs.(i), idx.Lifetime.of_index i))
     end
     else Chordal.peo_with_preference g ~key:(fun _ -> ()))

let order ?(options = default_options) dfg massign ~policy =
  let g, idx, ctx, var = indexed None dfg massign ~policy in
  List.map idx.Lifetime.of_index (coloring_order options g idx ctx var)

let allocate ?(options = default_options) ?sharing dfg massign ~policy =
  let g, idx, ctx, var = indexed sharing dfg massign ~policy in
  let n = idx.Lifetime.count in
  let in_of i = ctx.Sharing.in_mask.(var.(i)) and out_of i = ctx.Sharing.out_mask.(var.(i)) in
  let lemma = Cbilbo_rules.create ctx in
  (* Registers in creation order; [reg_of.(i)] is vertex i's register. *)
  let regs = ref [||] in
  let reg_of = Array.make n (-1) in
  let trace = ref [] in
  let pop = Sharing.popcount in
  let choose i =
    Telemetry.incr "regalloc.steps";
    let v = idx.Lifetime.of_index i in
    let vi = in_of i and vo = out_of i in
    let conflicting = Array.make (Array.length !regs) false in
    Ugraph.iter_neighbors g i (fun j ->
        if reg_of.(j) >= 0 then conflicting.(reg_of.(j)) <- true);
    let nonconf =
      List.filter (fun k -> not conflicting.(k)) (List.init (Array.length !regs) Fun.id)
    in
    let chosen, fresh, reason =
      match nonconf with
      | [] ->
        Telemetry.incr "regalloc.fresh_registers";
        let k = Array.length !regs in
        let rid = Printf.sprintf "R%d" (k + 1) in
        regs := Array.append !regs [| { rid; vars = []; ins = 0; outs = 0 } |];
        Cbilbo_rules.open_register lemma rid;
        (k, true, "conflict-all")
      | _ ->
        (* CBILBO avoidance: restrict to candidates whose assignment does
           not create a Lemma-2 situation, unless none qualifies. *)
        let safe =
          if not options.cbilbo_avoidance then nonconf
          else
            let baseline = Cbilbo_rules.min_count lemma in
            let ok k = Cbilbo_rules.min_count_with lemma k var.(i) <= baseline in
            match List.filter ok nonconf with
            | [] -> nonconf
            | l ->
              Telemetry.incr "regalloc.cbilbo_avoided"
                ~by:(List.length nonconf - List.length l);
              l
        in
        (* Every sharing-degree query counts as one evaluation. *)
        let evals = ref 0 in
        let sd_reg k =
          incr evals;
          pop !regs.(k).ins + pop !regs.(k).outs
        in
        let sd_with k =
          incr evals;
          pop (!regs.(k).ins lor vi) + pop (!regs.(k).outs lor vo)
        in
        let delta k =
          let r = !regs.(k) in
          incr evals;
          pop (r.ins lor vi) + pop (r.outs lor vo) - pop r.ins - pop r.outs
        in
        (* Interconnect affinity (the paper's final tie-break "taking
           into consideration the effect of the assignment on
           interconnect cost"): merging v into a register whose
           variables share source or destination units avoids new
           multiplexer inputs (Fig. 6 cases 3-5). *)
        let aff k = pop (!regs.(k).outs land vo) + pop (!regs.(k).ins land vi) in
        (* Primary choice: maximize Delta-SD; ties by register SD, then by
           interconnect affinity, then by creation order (stable). *)
        let rank k = (-delta k, -sd_reg k, -aff k) in
        let best_by_rank = function
          | [] -> invalid_arg "Testable_alloc: empty candidate set"
          | k :: rest ->
            List.fold_left (fun acc k' -> if rank k' < rank acc then k' else acc) k rest
        in
        let ri = best_by_rank safe in
        let ri_final_sd = sd_with ri in
        let case_candidates =
          if not options.case_preferences then []
          else begin
            (* Case 1: v is an output variable of unit M and a register
               already holds an output variable of M. Case 2: v is an
               input variable of unit M and at least two registers
               already hold input variables of M. *)
            let _, held_twice =
              Array.fold_left
                (fun (once, twice) r -> (once lor r.ins, twice lor (once land r.ins)))
                (0, 0) !regs
            in
            safe
            |> List.filter (fun k ->
                   !regs.(k).outs land vo <> 0 || !regs.(k).ins land vi land held_twice <> 0)
            (* in register-id string order ("R10" < "R2"): on equal
               ranks the first wins *)
            |> List.sort (fun a b -> compare !regs.(a).rid !regs.(b).rid)
            |> List.filter (fun k -> k <> ri && sd_reg k > ri_final_sd)
          end
        in
        let chosen, reason =
          match case_candidates with
          | [] -> (ri, "delta-sd")
          | cs -> (best_by_rank cs, "case-preference")
        in
        Telemetry.incr "regalloc.sd_evals" ~by:!evals;
        (chosen, false, reason)
    in
    let r = !regs.(chosen) in
    r.vars <- v :: r.vars;
    r.ins <- r.ins lor vi;
    r.outs <- r.outs lor vo;
    reg_of.(i) <- chosen;
    Cbilbo_rules.add lemma chosen var.(i);
    trace := { vertex = v; chosen = r.rid; fresh; reason } :: !trace
  in
  List.iter choose (coloring_order options g idx ctx var);
  ( Regalloc.make (Array.to_list (Array.map (fun r -> (r.rid, List.rev r.vars)) !regs)),
    List.rev !trace )
