module Area = Bistpath_datapath.Area
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Interconnect = Bistpath_datapath.Interconnect
module Allocator = Bistpath_bist.Allocator
module Resource = Bistpath_bist.Resource
module Session = Bistpath_bist.Session
module Ipath = Bistpath_ipath.Ipath
module Telemetry = Bistpath_telemetry.Telemetry
module Budget = Bistpath_resilience.Budget
module Json = Bistpath_util.Json
module Store = Bistpath_cache.Store
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module Lifetime = Bistpath_dfg.Lifetime
module Parser = Bistpath_dfg.Parser
module Interval = Bistpath_graphs.Interval

type style = Traditional | Testable of Testable_alloc.options

let parse_style = function
  | "traditional" -> Ok Traditional
  | "testable" -> Ok (Testable Testable_alloc.default_options)
  | s -> Error (Printf.sprintf "unknown flow %S (use testable or traditional)" s)

type result = {
  style : style;
  regalloc : Regalloc.t;
  datapath : Datapath.t;
  bist : Allocator.solution;
  sessions : Session.t;
  registers : int;
  muxes : int;
  overhead_percent : float;
}

(* A memo per flow run: the interconnect optimizer queries the weight
   many times per register. *)
let sd_weight ctx regalloc =
  let cache = Hashtbl.create 8 in
  fun rid ->
    match Hashtbl.find_opt cache rid with
    | Some w -> w
    | None ->
      let w =
        match List.assoc_opt rid regalloc.Regalloc.classes with
        | Some vars -> Sharing.sd_vars ctx vars
        | None -> 0
      in
      Hashtbl.replace cache rid w;
      w

(* --- canonical input encodings (cache keys) ------------------------ *)

let num n = Json.Num (float_of_int n)

let policy_json (policy : Policy.t) =
  Json.Obj
    [
      ("allocate_inputs", Json.Bool policy.Policy.allocate_inputs);
      ( "carried",
        Json.Arr
          (List.map
             (fun (w, i) -> Json.Arr [ Json.Str w; Json.Str i ])
             policy.Policy.carried) );
    ]

let massign_json (m : Massign.t) =
  Json.Obj
    [
      ( "units",
        Json.Arr
          (List.map
             (fun (u : Massign.hw) ->
               Json.Obj
                 [
                   ("mid", Json.Str u.Massign.mid);
                   ( "kinds",
                     Json.Arr
                       (List.map (fun k -> Json.Str (Op.symbol k)) u.Massign.kinds)
                   );
                 ])
             m.Massign.units) );
      ( "of_op",
        Json.Obj
          (List.rev
             (Dfg.Smap.fold (fun op mid acc -> (op, Json.Str mid) :: acc)
                m.Massign.of_op [])) );
    ]

let style_json = function
  | Traditional -> Json.Str "traditional"
  | Testable (o : Testable_alloc.options) ->
    Json.Obj
      [
        ( "testable",
          Json.Obj
            [
              ("sd_ordering", Json.Bool o.Testable_alloc.sd_ordering);
              ("case_preferences", Json.Bool o.Testable_alloc.case_preferences);
              ("cbilbo_avoidance", Json.Bool o.Testable_alloc.cbilbo_avoidance);
            ] );
      ]

let model_json (m : Area.model) =
  Json.Obj
    [
      ("register_per_bit", num m.Area.register_per_bit);
      ("tpg_delta_per_bit", num m.Area.tpg_delta_per_bit);
      ("sa_delta_per_bit", num m.Area.sa_delta_per_bit);
      ("bilbo_delta_per_bit", num m.Area.bilbo_delta_per_bit);
      ("cbilbo_delta_per_bit", num m.Area.cbilbo_delta_per_bit);
      ("mux2_per_bit", num m.Area.mux2_per_bit);
      ("add_per_bit", num m.Area.add_per_bit);
      ("sub_per_bit", num m.Area.sub_per_bit);
      ("logic_per_bit", num m.Area.logic_per_bit);
      ("less_per_bit", num m.Area.less_per_bit);
      ("mul_per_bit_sq", num m.Area.mul_per_bit_sq);
      ("div_per_bit_sq", num m.Area.div_per_bit_sq);
      ("alu_base_per_bit", num m.Area.alu_base_per_bit);
      ("alu_per_kind_per_bit", num m.Area.alu_per_kind_per_bit);
    ]

(* The schedule (root) stage: its key is the content identity of the
   whole specification. [Parser.to_string] is round-trippable and
   carries the control steps, so two specs hash alike iff they denote
   the same scheduled DFG + binding + policy. *)
let spec_hash dfg massign ~policy =
  Stage.key Stage.Schedule
    ~inputs:
      (Json.Obj
         [
           ("dfg", Json.Str (Parser.to_string dfg));
           ("massign", massign_json massign);
           ("policy", policy_json policy);
         ])

let flow_params_json ?(model = Area.default) ?(width = 8)
    ?(io_penalty_percent = 100) ?(transparency = false) ~style () =
  Json.Obj
    [
      ("style", style_json style);
      ("model", model_json model);
      ("width", num width);
      ("io_penalty_percent", num io_penalty_percent);
      ("transparency", Json.Bool transparency);
    ]

let artifact_key ~stage ~spec_hash ~params =
  Stage.key stage
    ~inputs:(Json.Obj [ ("schedule", Json.Str spec_hash); ("params", params) ])

(* Terminal artifact lookup/commit, shared by the CLI and the service
   runner so both report the same per-stage hit/miss counters. [key =
   None] (caching off, or the caller needs the live flow result — the
   --check gate, say) is a silent pass-through: no counters, no I/O. *)
let artifact_find ~cache ~stage ~key =
  match (cache, key) with
  | Some store, Some key -> (
    let sname = Stage.name stage in
    match Store.find store ~stage:sname ~key with
    | Some payload ->
      Telemetry.incr "cache.hit";
      Telemetry.incr ("cache.hit." ^ sname);
      Some payload
    | None ->
      Telemetry.incr "cache.miss";
      Telemetry.incr ("cache.miss." ^ sname);
      None)
  | _ -> None

let artifact_store ~cache ~stage ~key payload =
  match (cache, key) with
  | Some store, Some key -> Store.put store ~stage:(Stage.name stage) ~key payload
  | _ -> ()

(* --- stage payload codecs ------------------------------------------ *)

(* Decoders return [None] on any structural problem — a hand-edited or
   half-written entry that slipped past the store's integrity check, or
   a payload that no longer validates against today's DFG — and the
   stage recomputes. [Exit] is the local "shape mismatch" escape. *)

let encode_regalloc (r : Regalloc.t) =
  Json.to_string
    (Json.Arr
       (List.map
          (fun (rid, vars) ->
            Json.Arr (Json.Str rid :: List.map (fun v -> Json.Str v) vars))
          r.Regalloc.classes))

let decode_regalloc dfg ~policy payload =
  match Json.parse payload with
  | Ok (Json.Arr rows) -> (
    try
      let classes =
        List.map
          (function
            | Json.Arr (Json.Str rid :: vars) ->
              ( rid,
                List.map (function Json.Str v -> v | _ -> raise Exit) vars )
            | _ -> raise Exit)
          rows
      in
      let r = Regalloc.make classes in
      if Regalloc.is_valid_for r dfg ~policy then Some r else None
    with Exit | Invalid_argument _ -> None)
  | Ok _ | Error _ -> None

(* [Interconnect.optimize] terminates in [Datapath.build ... ~swap], so
   the swapped-op-id set is a complete encoding of its decision; the
   data path is rebuilt from today's DFG/assignment, never stored. *)
let encode_swaps (dp : Datapath.t) =
  Json.to_string
    (Json.Arr
       (List.filter_map
          (fun (rt : Datapath.route) ->
            if rt.Datapath.swapped then Some (Json.Str rt.Datapath.opid) else None)
          dp.Datapath.routes))

let decode_datapath dfg massign regalloc ~policy payload =
  match Json.parse payload with
  | Ok (Json.Arr ids) -> (
    try
      let swapped =
        List.fold_left
          (fun acc -> function
            | Json.Str id -> Dfg.Sset.add id acc
            | _ -> raise Exit)
          Dfg.Sset.empty ids
      in
      Some
        (Datapath.build dfg massign regalloc ~policy ~swap:(fun op ->
             Dfg.Sset.mem op swapped))
    with Exit | Invalid_argument _ -> None)
  | Ok _ | Error _ -> None

let style_to_name = function
  | Resource.Normal -> "normal"
  | Resource.Tpg -> "tpg"
  | Resource.Sa -> "sa"
  | Resource.Bilbo -> "bilbo"
  | Resource.Cbilbo -> "cbilbo"

let style_of_name = function
  | "normal" -> Some Resource.Normal
  | "tpg" -> Some Resource.Tpg
  | "sa" -> Some Resource.Sa
  | "bilbo" -> Some Resource.Bilbo
  | "cbilbo" -> Some Resource.Cbilbo
  | _ -> None

let opt_str = function Some s -> Json.Str s | None -> Json.Null

let encode_bist (b : Allocator.solution) (s : Session.t) =
  Json.to_string
    (Json.Obj
       [
         ( "embeddings",
           Json.Arr
             (List.map
                (fun (e : Ipath.embedding) ->
                  Json.Obj
                    [
                      ("mid", Json.Str e.Ipath.mid);
                      ("l_tpg", Json.Str e.Ipath.l_tpg);
                      ("r_tpg", Json.Str e.Ipath.r_tpg);
                      ("sa", Json.Str e.Ipath.sa);
                      ("l_via", opt_str e.Ipath.l_via);
                      ("r_via", opt_str e.Ipath.r_via);
                    ])
                b.Allocator.embeddings) );
         ( "styles",
           Json.Arr
             (List.map
                (fun (rid, st) ->
                  Json.Arr [ Json.Str rid; Json.Str (style_to_name st) ])
                b.Allocator.styles) );
         ( "untestable",
           Json.Arr (List.map (fun u -> Json.Str u) b.Allocator.untestable) );
         ("delta_gates", num b.Allocator.delta_gates);
         ( "sessions",
           Json.Arr
             (List.map
                (fun sess -> Json.Arr (List.map (fun u -> Json.Str u) sess))
                s.Session.sessions) );
       ])

let decode_bist payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok json -> (
    try
      let field name =
        match Json.member name json with Some v -> v | None -> raise Exit
      in
      let str = function Json.Str s -> s | _ -> raise Exit in
      let list = function Json.Arr xs -> xs | _ -> raise Exit in
      let vopt = function Json.Null -> None | v -> Some (str v) in
      let embeddings =
        List.map
          (fun e ->
            let m name =
              match Json.member name e with Some v -> v | None -> raise Exit
            in
            {
              Ipath.mid = str (m "mid");
              l_tpg = str (m "l_tpg");
              r_tpg = str (m "r_tpg");
              sa = str (m "sa");
              l_via = vopt (m "l_via");
              r_via = vopt (m "r_via");
            })
          (list (field "embeddings"))
      in
      let styles =
        List.map
          (function
            | Json.Arr [ Json.Str rid; Json.Str st ] -> (
              match style_of_name st with
              | Some st -> (rid, st)
              | None -> raise Exit)
            | _ -> raise Exit)
          (list (field "styles"))
      in
      let untestable = List.map str (list (field "untestable")) in
      let delta_gates =
        match Json.to_int (field "delta_gates") with
        | Some n -> n
        | None -> raise Exit
      in
      let sessions =
        List.map (fun s -> List.map str (list s)) (list (field "sessions"))
      in
      Some
        ( {
            Allocator.embeddings;
            styles;
            untestable;
            delta_gates;
            (* only exact solutions are ever stored *)
            exact = true;
          },
          { Session.sessions } )
    with Exit -> None)
  | exception _ -> None

(* --- the keyed stage walk ------------------------------------------ *)

(* Run one DAG stage through the store. [key = None] (no cache, or an
   upstream output was uncacheable) falls through to a plain compute —
   the exact historical code path, so uncached flows stay byte-identical.
   A decode failure counts as corrupt and recomputes; an uncacheable
   result (budget-truncated search) is returned without an output hash
   so downstream stages also skip the store. *)
let stage_cached ~cache ~stage ~key ~encode ~decode ~cacheable compute =
  match (cache, key) with
  | None, _ | _, None -> (compute (), None)
  | Some store, Some key -> (
    let sname = Stage.name stage in
    let hit =
      match Store.find store ~stage:sname ~key with
      | None -> None
      | Some payload -> (
        match decode payload with
        | Some v -> Some (v, payload)
        | None ->
          Telemetry.incr "cache.corrupt";
          None)
    in
    match hit with
    | Some (v, payload) ->
      Telemetry.incr "cache.hit";
      Telemetry.incr ("cache.hit." ^ sname);
      (v, Some (Stage.out_hash ~key ~payload))
    | None ->
      Telemetry.incr "cache.miss";
      Telemetry.incr ("cache.miss." ^ sname);
      let v = compute () in
      if cacheable v then begin
        let payload = encode v in
        Store.put store ~stage:sname ~key payload;
        (v, Some (Stage.out_hash ~key ~payload))
      end
      else (v, None))

let run ?(model = Area.default) ?(width = 8) ?(io_penalty_percent = 100)
    ?(transparency = false) ?(budget = Budget.unlimited) ?cache ~style dfg
    massign ~policy =
  Telemetry.with_span "flow"
    ~attrs:
      [
        ("dfg", dfg.Bistpath_dfg.Dfg.name);
        ("style",
         match style with Traditional -> "traditional" | Testable _ -> "testable");
      ]
  @@ fun () ->
  (* Schedule (root) stage: nothing to compute, its key is the content
     identity everything downstream chains from. Only derived when a
     store is attached — uncached runs never pay for the rendering. *)
  let spec_h = Option.map (fun _ -> spec_hash dfg massign ~policy) cache in
  (* The design's indexed view, shared by regalloc and the interconnect
     weight; built at most once, and not at all when both stages hit. *)
  let sharing = lazy (Sharing.make dfg massign) in
  let regalloc, alloc_h =
    Telemetry.with_span "regalloc" @@ fun () ->
    let key =
      Option.map
        (fun sh ->
          match style with
          | Traditional ->
            (* left-edge is a pure function of the lifetime spans under
               the policy: key on those, so a spec edit that preserves
               lifetimes (changing an op's kind, say) still hits *)
            Stage.key Stage.Alloc
              ~inputs:
                (Json.Obj
                   [
                     ("flow", Json.Str "traditional");
                     ("policy", policy_json policy);
                     ( "spans",
                       Json.Arr
                         (List.map
                            (fun (v, (s : Interval.span)) ->
                              Json.Arr
                                [
                                  Json.Str v;
                                  num s.Interval.birth;
                                  num s.Interval.death;
                                ])
                            (Lifetime.spans ~policy dfg)) );
                   ])
          | Testable _ ->
            (* Delta-SD reads sharing degrees off the full binding: the
               whole spec is its input *)
            Stage.key Stage.Alloc
              ~inputs:
                (Json.Obj
                   [
                     ("flow", Json.Str "testable");
                     ("schedule", Json.Str sh);
                     ("options", style_json style);
                   ]))
        spec_h
    in
    stage_cached ~cache ~stage:Stage.Alloc ~key ~encode:encode_regalloc
      ~decode:(decode_regalloc dfg ~policy)
      ~cacheable:(fun _ -> true)
      (fun () ->
        match style with
        | Traditional -> Traditional_alloc.allocate dfg ~policy
        | Testable options ->
          fst
            (Testable_alloc.allocate ~options ~sharing:(Lazy.force sharing) dfg massign
               ~policy))
  in
  let datapath, ic_h =
    Telemetry.with_span "interconnect" @@ fun () ->
    let key =
      match (spec_h, alloc_h) with
      | Some sh, Some ah ->
        Some
          (Stage.key Stage.Interconnect
             ~inputs:
               (Json.Obj
                  [
                    ("schedule", Json.Str sh);
                    ("alloc", Json.Str ah);
                    ( "objective",
                      Json.Str
                        (match style with
                        | Traditional -> "unweighted"
                        | Testable _ -> "sd-weighted") );
                  ]))
      | _ -> None
    in
    stage_cached ~cache ~stage:Stage.Interconnect ~key ~encode:encode_swaps
      ~decode:(decode_datapath dfg massign regalloc ~policy)
      ~cacheable:(fun _ -> true)
      (fun () ->
        let objective =
          match style with
          | Traditional -> { Interconnect.weight = (fun _ -> 0) }
          | Testable _ -> { Interconnect.weight = sd_weight (Lazy.force sharing) regalloc }
        in
        Interconnect.optimize dfg massign regalloc ~policy ~objective)
  in
  let (bist, sessions), _bist_h =
    let key =
      Option.map
        (fun ih ->
          Stage.key Stage.Bist
            ~inputs:
              (Json.Obj
                 [
                   ("interconnect", Json.Str ih);
                   ("model", model_json model);
                   ("width", num width);
                   ("io_penalty_percent", num io_penalty_percent);
                   ("transparency", Json.Bool transparency);
                 ]))
        ic_h
    in
    stage_cached ~cache ~stage:Stage.Bist ~key
      ~encode:(fun (b, s) -> encode_bist b s)
      ~decode:decode_bist
      ~cacheable:(fun ((b : Allocator.solution), _) ->
        (* a truncated search is a valid answer but not a reusable one *)
        b.Allocator.exact && not (Budget.should_stop budget))
      (fun () ->
        let bist =
          Telemetry.with_span "bist_alloc" @@ fun () ->
          Allocator.solve ~model ~width ~io_penalty_percent ~transparency
            ~budget datapath
        in
        let sessions =
          Telemetry.with_span "sessions" @@ fun () ->
          Session.schedule ~budget bist
        in
        (bist, sessions))
  in
  Telemetry.set "regs.allocated" (Datapath.allocated_register_count datapath);
  Telemetry.set "muxes.allocated" (Datapath.mux_count datapath);
  Telemetry.set "bist.delta_gates" bist.Allocator.delta_gates;
  Telemetry.set "sessions.count" (Session.num_sessions sessions);
  {
    style;
    regalloc;
    datapath;
    bist;
    sessions;
    registers = Datapath.allocated_register_count datapath;
    muxes = Datapath.mux_count datapath;
    overhead_percent = Allocator.overhead_percent ~model ~width datapath bist;
  }

let reduction_percent ~traditional ~testable =
  if traditional.overhead_percent = 0.0 then 0.0
  else
    100.0
    *. (traditional.overhead_percent -. testable.overhead_percent)
    /. traditional.overhead_percent

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s flow: %d registers, %d muxes, BIST overhead %.2f%%@,%a@,%a@]"
    (match r.style with Traditional -> "traditional" | Testable _ -> "testable")
    r.registers r.muxes r.overhead_percent Regalloc.pp r.regalloc
    Allocator.pp_solution r.bist
