module Area = Bistpath_datapath.Area
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Interconnect = Bistpath_datapath.Interconnect
module Allocator = Bistpath_bist.Allocator
module Session = Bistpath_bist.Session
module Telemetry = Bistpath_telemetry.Telemetry
module Budget = Bistpath_resilience.Budget
module Json = Bistpath_util.Json
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module Parser = Bistpath_dfg.Parser

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

let flow_params_json ?(width = 8) ?(io_penalty_percent = 100) ?(transparency = false) ~style
    () =
  Json.Obj
    [
      ("style", style_json style);
      ("model", model_json Area.default);
      ("width", num width);
      ("io_penalty_percent", num io_penalty_percent);
      ("transparency", Json.Bool transparency);
    ]

let artifact_key ~stage ~spec_hash ~params =
  Stage.key stage
    ~inputs:(Json.Obj [ ("schedule", Json.Str spec_hash); ("params", params) ])

let run ?(width = 8) ?(io_penalty_percent = 100) ?(transparency = false)
    ?(budget = Budget.unlimited) ~style dfg massign ~policy =
  Telemetry.with_span "flow"
    ~attrs:
      [
        ("dfg", dfg.Bistpath_dfg.Dfg.name);
        ("style",
         match style with Traditional -> "traditional" | Testable _ -> "testable");
      ]
  @@ fun () ->
  (* The design's indexed view, shared by the testable allocation and
     its interconnect weight; the traditional flow never builds it. *)
  let sharing = lazy (Sharing.make dfg massign) in
  let regalloc =
    Telemetry.with_span "regalloc" @@ fun () ->
    match style with
    | Traditional -> Traditional_alloc.allocate dfg ~policy
    | Testable options ->
      fst
        (Testable_alloc.allocate ~options ~sharing:(Lazy.force sharing) dfg massign
           ~policy)
  in
  let datapath =
    Telemetry.with_span "interconnect" @@ fun () ->
    let objective =
      match style with
      | Traditional -> { Interconnect.weight = (fun _ -> 0) }
      | Testable _ -> { Interconnect.weight = sd_weight (Lazy.force sharing) regalloc }
    in
    Interconnect.optimize dfg massign regalloc ~policy ~objective
  in
  let bist =
    Telemetry.with_span "bist_alloc" @@ fun () ->
    Allocator.solve ~width ~io_penalty_percent ~transparency ~budget datapath
  in
  let sessions =
    Telemetry.with_span "sessions" @@ fun () -> Session.schedule ~budget bist
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
    overhead_percent = Allocator.overhead_percent ~width datapath bist;
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
