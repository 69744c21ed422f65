module Dfg = Bistpath_dfg.Dfg
module Massign = Bistpath_dfg.Massign
module Lifetime = Bistpath_dfg.Lifetime
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Interval = Bistpath_graphs.Interval
module Chordal = Bistpath_graphs.Chordal
module Ipath = Bistpath_ipath.Ipath
module Allocator = Bistpath_bist.Allocator
module Resource = Bistpath_bist.Resource
module Sharing = Bistpath_core.Sharing
module Cbilbo_rules = Bistpath_core.Cbilbo_rules
open Rule

let error = Bistpath_resilience.Diagnostic.Error
let warning = Bistpath_resilience.Diagnostic.Warning

(* ALC001: two variables with overlapping lifetimes in one register. *)
let alc001 ctx facts =
  let span_of = Hashtbl.find_opt (Lazy.force facts.span_table) in
  List.concat_map
    (fun (rid, vars) ->
      let rec pairs = function
        | [] -> []
        | a :: rest ->
            List.filter_map
              (fun b ->
                match (span_of a, span_of b) with
                | Some sa, Some sb when Interval.overlap sa sb ->
                    Some
                      (v "ALC001" error rid
                         "variables %s and %s have overlapping lifetimes (%d,%d] and (%d,%d] \
                          but share this register"
                         a b sa.Interval.birth sa.Interval.death sb.Interval.birth
                         sb.Interval.death)
                | _ -> None)
              rest
            @ pairs rest
      in
      pairs vars)
    ctx.regalloc.Regalloc.classes

(* ALC002: the assignment is not a partition of the allocatable variables. *)
let alc002 ctx facts =
  let allocatable = List.map fst (Lazy.force facts.spans) in
  let is_allocatable = Hashtbl.mem (Lazy.force facts.span_table) in
  let assigned = Regalloc.variables ctx.regalloc in
  (* per variable, the number of registers holding it and the last one *)
  let holders = Hashtbl.create 64 in
  List.iteri
    (fun k (_, vars) ->
      List.iter
        (fun var ->
          match Hashtbl.find_opt holders var with
          | Some (_, last) when last = k -> ()
          | Some (n, _) -> Hashtbl.replace holders var (n + 1, k)
          | None -> Hashtbl.replace holders var (1, k))
        vars)
    ctx.regalloc.Regalloc.classes;
  let held_by var = match Hashtbl.find_opt holders var with Some (n, _) -> n | None -> 0 in
  let missing = List.filter (fun v -> held_by v = 0) allocatable in
  let extra = List.filter (fun v -> not (is_allocatable v)) assigned in
  let dup = List.filter (fun var -> held_by var >= 2) (List.sort_uniq compare assigned) in
  List.map (fun x -> v "ALC002" error x "allocatable variable is assigned to no register") missing
  @ List.map
      (fun x -> v "ALC002" error x "variable is in the register file but is not allocatable")
      extra
  @ List.map (fun x -> v "ALC002" error x "variable is assigned to more than one register") dup

(* ALC003: the recomputed conflict graph must be chordal (interval graphs
   always are — this rule guards the lifetime machinery itself). *)
let alc003 ctx facts =
  let g, _ = Lazy.force facts.conflicts in
  if Chordal.is_chordal g then []
  else [ v "ALC003" error ctx.design "recomputed variable conflict graph is not chordal" ]

(* ALC004: more registers than the chromatic number — legal but not the
   paper's minimum, so worth a warning. *)
let alc004 ctx facts =
  let used = Regalloc.num_registers ctx.regalloc in
  let minimum = Chordal.clique_number (fst (Lazy.force facts.conflicts)) in
  if used > minimum then
    [ v "ALC004" warning ctx.design
        "register file uses %d registers where %d suffice (clique number of the conflict graph)"
        used minimum ]
  else []

(* ALC005: the recorded coloring order must be the reverse of a perfect
   vertex elimination scheme of the conflict graph. *)
let alc005 ctx facts =
  match ctx.order with
  | None -> []
  | Some order ->
      let g, idx = Lazy.force facts.conflicts in
      let sp = Lazy.force facts.spans in
      let allocatable = Hashtbl.mem (Lazy.force facts.span_table) in
      let unknown = List.filter (fun v -> not (allocatable v)) order in
      if unknown <> [] then
        List.map
          (fun x -> v "ALC005" error x "coloring order mentions an unknown or unallocatable variable")
          unknown
      else if List.length order <> List.length sp then
        [ v "ALC005" error ctx.design
            "coloring order covers %d of %d allocatable variables" (List.length order)
            (List.length sp) ]
      else
        let peo = List.rev_map idx.Lifetime.to_index order in
        if Chordal.is_peo g peo then []
        else
          [ v "ALC005" error ctx.design
              "coloring order reversed is not a perfect vertex elimination scheme of the \
               conflict graph" ]

(* --- BIST rules (active when the artifact bundle carries a solution) --- *)

let style_name s = Resource.style_label s

let declared_style (sol : Allocator.solution) rid =
  List.assoc_opt rid sol.Allocator.styles

(* BIST001: every chosen embedding must denote I-paths that exist on this
   datapath, and (for simple paths) the claimed sharing must be backed by
   an actual variable-set intersection. *)
let bist001 ctx facts =
  match ctx.bist with
  | None -> []
  | Some sol ->
      let sctx = Lazy.force facts.sharing in
      let known_unit mid = List.mem mid (Sharing.units sctx) in
      let check_tpg (e : Ipath.embedding) side =
        let reg, via, label =
          match side with
          | `L -> (e.Ipath.l_tpg, e.Ipath.l_via, "left")
          | `R -> (e.Ipath.r_tpg, e.Ipath.r_via, "right")
        in
        let ipath_side = match side with `L -> Ipath.L | `R -> Ipath.R in
        let structural =
          match via with
          | None -> List.mem reg (Ipath.tpg_candidates ctx.datapath e.Ipath.mid ipath_side)
          | Some u ->
              List.mem (reg, u)
                (Ipath.tpg_candidates_transparent ctx.datapath e.Ipath.mid ipath_side)
        in
        let findings =
          if structural then []
          else
            [ v "BIST001" error e.Ipath.mid
                "embedding claims %s-port TPG %s%s but no such I-path exists on the data path"
                label reg
                (match via with Some u -> " (via " ^ u ^ ")" | None -> "") ]
        in
        (* Sharing claim: a simple-path TPG register must actually hold an
           operand variable of the unit. *)
        let sharing =
          match via with
          | Some _ -> []
          | None -> (
              match stored_vars ctx reg with
              | None -> []  (* missing register: structural check already fired *)
              | Some vars ->
                  if
                    known_unit e.Ipath.mid
                    && not
                         (List.exists
                            (fun x -> Dfg.Sset.mem x (Sharing.in_set sctx e.Ipath.mid))
                            vars)
                  then
                    [ v "BIST001" error e.Ipath.mid
                        "TPG register %s shares no variable with I_%s — the sharing claim \
                         behind the I-path is vacuous"
                        reg e.Ipath.mid ]
                  else [])
        in
        findings @ sharing
      in
      List.concat_map
        (fun (e : Ipath.embedding) ->
          let tpgs = check_tpg e `L @ check_tpg e `R in
          let distinct =
            if e.Ipath.l_tpg = e.Ipath.r_tpg then
              [ v "BIST001" error e.Ipath.mid
                  "both ports draw patterns from %s — the two ports need independent sources"
                  e.Ipath.l_tpg ]
            else []
          in
          let sa =
            if List.mem e.Ipath.sa (Ipath.sa_candidates ctx.datapath e.Ipath.mid) then
              match stored_vars ctx e.Ipath.sa with
              | Some vars
                when known_unit e.Ipath.mid
                     && not
                          (List.exists
                             (fun x -> Dfg.Sset.mem x (Sharing.out_set sctx e.Ipath.mid))
                             vars) ->
                  [ v "BIST001" error e.Ipath.mid
                      "SA register %s shares no variable with O_%s — the sharing claim \
                       behind the I-path is vacuous"
                      e.Ipath.sa e.Ipath.mid ]
              | _ -> []
            else
              [ v "BIST001" error e.Ipath.mid
                  "embedding claims SA %s but the unit has no I-path into it" e.Ipath.sa ]
          in
          tpgs @ distinct @ sa)
        sol.Allocator.embeddings

(* BIST002: each register's declared style must equal the cheapest style
   covering the duties the embeddings actually place on it. *)
let bist002 ctx _ =
  match ctx.bist with
  | None -> []
  | Some sol ->
      let roles rid =
        List.concat_map
          (fun (e : Ipath.embedding) ->
            let gen side = if side = rid then [ Resource.Generates e.Ipath.mid ] else [] in
            gen e.Ipath.l_tpg @ gen e.Ipath.r_tpg
            @ if e.Ipath.sa = rid then [ Resource.Compacts e.Ipath.mid ] else [])
          sol.Allocator.embeddings
      in
      let reg_ids = List.map (fun (r : Datapath.reg) -> r.Datapath.rid) ctx.datapath.Datapath.regs in
      let missing =
        List.filter_map
          (fun rid ->
            if declared_style sol rid = None then
              Some (v "BIST002" error rid "register has no entry in the style table")
            else None)
          reg_ids
      in
      let unknown =
        List.filter_map
          (fun (rid, _) ->
            if List.mem rid reg_ids then None
            else Some (v "BIST002" error rid "style table names a register the data path lacks"))
          sol.Allocator.styles
      in
      let mismatched =
        List.filter_map
          (fun (rid, declared) ->
            if not (List.mem rid reg_ids) then None
            else
              let expected =
                match roles rid with [] -> Resource.Normal | rs -> Resource.style_of_roles rs
              in
              if declared = expected then None
              else
                Some
                  (v "BIST002" error rid
                     "declared style %s but the chosen embeddings give it duties requiring %s"
                     (style_name declared) (style_name expected)))
          sol.Allocator.styles
      in
      missing @ unknown @ mismatched

(* BIST003: a CBILBO condition is triggered but the register is not
   flagged — either the chosen embedding itself places the double duty,
   or every embedding of the unit does (ground truth) yet the chosen one
   claims otherwise. *)
let bist003 ctx facts =
  match ctx.bist with
  | None -> []
  | Some sol ->
      List.concat_map
        (fun (e : Ipath.embedding) ->
          let flagged =
            if
              Ipath.requires_cbilbo e
              && declared_style sol e.Ipath.sa <> Some Resource.Cbilbo
            then
              [ v "BIST003" error e.Ipath.sa
                  "register generates and compacts concurrently for %s but is styled %s, \
                   not CBILBO"
                  e.Ipath.mid
                  (match declared_style sol e.Ipath.sa with
                  | Some s -> style_name s
                  | None -> "nothing") ]
            else []
          in
          let unavoidable =
            if
              (not (Ipath.requires_cbilbo e))
              && Ipath.cbilbo_unavoidable (facts.unit_embeddings e.Ipath.mid)
            then
              [ v "BIST003" error e.Ipath.mid
                  "every embedding of this unit needs a CBILBO, yet the chosen one is \
                   recorded as avoiding it" ]
            else []
          in
          flagged @ unavoidable)
        sol.Allocator.embeddings

(* BIST004: a register flagged CBILBO that no chosen embedding justifies. *)
let bist004 ctx _ =
  match ctx.bist with
  | None -> []
  | Some sol ->
      List.filter_map
        (fun (rid, style) ->
          if style <> Resource.Cbilbo then None
          else if
            List.exists
              (fun (e : Ipath.embedding) -> Ipath.requires_cbilbo e && e.Ipath.sa = rid)
              sol.Allocator.embeddings
          then None
          else
            Some
              (v "BIST004" error rid
                 "register is flagged CBILBO but no chosen embedding makes it generate and \
                  compact for the same unit"))
        sol.Allocator.styles

(* BIST005: Lemma 1/2 prediction vs. post-interconnect ground truth. The
   lemma is documented as perfect-precision / ~90%-recall, so a
   disagreement is a warning, not an error. It predicts from plain
   I-paths, so the ground truth is the plain embeddings even under
   transparency (BIST003 audits the transparent ones). *)
let bist005 ctx facts =
  let sctx = Lazy.force facts.sharing in
  let classes =
    List.map (fun (r : Datapath.reg) -> (r.Datapath.rid, r.Datapath.vars)) ctx.datapath.Datapath.regs
  in
  List.concat_map
    (fun (verdict : Cbilbo_rules.verdict) ->
      let mid = verdict.Cbilbo_rules.mid in
      let embeddings = facts.plain_embeddings mid in
      if not (Ipath.embeddable embeddings) then []
      else
        let predicted = Cbilbo_rules.forced verdict in
        let ground = Ipath.cbilbo_unavoidable embeddings in
        let all_commutative =
          match List.find_opt (fun (u : Massign.hw) -> u.Massign.mid = mid) ctx.massign.Massign.units with
          | Some u -> List.for_all Bistpath_dfg.Op.commutative u.Massign.kinds
          | None -> true
        in
        if predicted && not ground then
          (* For non-commutative units the lemma is a documented
             over-approximation (pinned operand sides), so a precision
             escape there carries no signal. *)
          if not all_commutative then []
          else
            [ v "BIST005" warning mid
                "Lemma 1/2 predicts a forced CBILBO but some embedding avoids it (precision \
                 escape — unexpected, the lemma is documented exact on commutative units)" ]
        else if ground && not predicted then
          [ v "BIST005" warning mid
              "every embedding needs a CBILBO but Lemma 1/2 did not predict it (known \
               ~90%%-recall escape)" ]
        else [])
    (Cbilbo_rules.verdicts sctx ~classes)

(* BIST006: two units in the same test session with conflicting duties —
   shared SA, or generate-for-one/compact-for-another on a non-CBILBO. *)
let bist006 ctx _ =
  match (ctx.bist, ctx.sessions) with
  | Some sol, Some sched ->
      let emb mid =
        List.find_opt (fun (e : Ipath.embedding) -> e.Ipath.mid = mid) sol.Allocator.embeddings
      in
      let is_cbilbo rid = declared_style sol rid = Some Resource.Cbilbo in
      let tpgs (e : Ipath.embedding) = [ e.Ipath.l_tpg; e.Ipath.r_tpg ] in
      let conflict (a : Ipath.embedding) (b : Ipath.embedding) =
        if a.Ipath.sa = b.Ipath.sa then
          Some (Printf.sprintf "both compact into %s" a.Ipath.sa)
        else if List.mem b.Ipath.sa (tpgs a) && not (is_cbilbo b.Ipath.sa) then
          Some
            (Printf.sprintf "%s generates for %s while compacting for %s without being a CBILBO"
               b.Ipath.sa a.Ipath.mid b.Ipath.mid)
        else if List.mem a.Ipath.sa (tpgs b) && not (is_cbilbo a.Ipath.sa) then
          Some
            (Printf.sprintf "%s generates for %s while compacting for %s without being a CBILBO"
               a.Ipath.sa b.Ipath.mid a.Ipath.mid)
        else None
      in
      List.concat_map
        (fun session ->
          let rec pairs = function
            | [] -> []
            | ma :: rest ->
                List.filter_map
                  (fun mb ->
                    match (emb ma, emb mb) with
                    | Some ea, Some eb -> (
                        match conflict ea eb with
                        | Some why ->
                            Some
                              (v "BIST006" error (ma ^ "+" ^ mb)
                                 "units scheduled in one session conflict: %s" why)
                        | None -> None)
                    | _ -> None)
                  rest
                @ pairs rest
          in
          pairs session)
        sched.Bistpath_bist.Session.sessions
  | _ -> []

let rules =
  [
    { id = "ALC001"; severity = error; title = "conflicting variables share a register"; run = alc001 };
    { id = "ALC002"; severity = error;
      title = "register assignment does not partition the allocatable variables";
      run = alc002;
    };
    { id = "ALC003"; severity = error; title = "conflict graph is not chordal"; run = alc003 };
    { id = "ALC004"; severity = warning;
      title = "register count exceeds the recomputed minimum";
      run = alc004;
    };
    { id = "ALC005"; severity = error;
      title = "coloring order is not a reverse perfect vertex elimination scheme";
      run = alc005;
    };
    { id = "BIST001"; severity = error;
      title = "BIST embedding claims an I-path the data path does not have";
      run = bist001;
    };
    { id = "BIST002"; severity = error;
      title = "register style does not match its accumulated test duties";
      run = bist002;
    };
    { id = "BIST003"; severity = error;
      title = "CBILBO condition triggered but register not flagged";
      run = bist003;
    };
    { id = "BIST004"; severity = error;
      title = "register flagged CBILBO without a generate-and-compact duty";
      run = bist004;
    };
    { id = "BIST005"; severity = warning;
      title = "Lemma 1/2 prediction disagrees with the post-interconnect ground truth";
      run = bist005;
    };
    { id = "BIST006"; severity = error;
      title = "test session schedules conflicting duties together";
      run = bist006;
    };
  ]
