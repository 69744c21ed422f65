module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Sharing = Bistpath_core.Sharing
module Merge_cases = Bistpath_core.Merge_cases
module Ralloc = Bistpath_core.Ralloc
module Syntest = Bistpath_core.Syntest
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Policy = Bistpath_dfg.Policy
module Lifetime = Bistpath_dfg.Lifetime
module Chordal = Bistpath_graphs.Chordal
module Ugraph = Bistpath_graphs.Ugraph
module Regalloc = Bistpath_datapath.Regalloc
module Datapath = Bistpath_datapath.Datapath
module Interconnect = Bistpath_datapath.Interconnect
module Ipath = Bistpath_ipath.Ipath
module Allocator = Bistpath_bist.Allocator
module Resource = Bistpath_bist.Resource
module Table = Bistpath_util.Table

type comparison = {
  instance : B.instance;
  traditional : Flow.result;
  testable : Flow.result;
}

let compare_instance ?(width = 8) (instance : B.instance) =
  let run style = Flow.run ~width ~style instance.dfg instance.massign ~policy:instance.policy in
  {
    instance;
    traditional = run Flow.Traditional;
    testable = run (Flow.Testable Testable_alloc.default_options);
  }

let pct f = Printf.sprintf "%.2f" f

let table1 ?(width = 8) () =
  let t =
    Table.create
      [
        ("DFG", Table.Left); ("Module Assignment", Table.Left);
        ("T #Reg", Table.Right); ("T #Mux", Table.Right); ("T %BIST", Table.Right);
        ("O #Reg", Table.Right); ("O #Mux", Table.Right); ("O %BIST", Table.Right);
        ("%Reduction", Table.Right);
      ]
  in
  List.iter
    (fun inst ->
      let c = compare_instance ~width inst in
      Table.add_row t
        [
          inst.B.tag;
          Massign.describe inst.B.massign inst.B.dfg;
          string_of_int c.traditional.Flow.registers;
          string_of_int c.traditional.Flow.muxes;
          pct c.traditional.Flow.overhead_percent;
          string_of_int c.testable.Flow.registers;
          string_of_int c.testable.Flow.muxes;
          pct c.testable.Flow.overhead_percent;
          pct (Flow.reduction_percent ~traditional:c.traditional ~testable:c.testable);
        ])
    (B.table1 ());
  "Table I. Design comparisons with BIST area overhead\n\
   (T = traditional HLS, O = our testable HLS; %BIST = gate overhead of the\n\
   minimal-area BIST solution found by the exact search)\n\n"
  ^ Table.to_string t

let mix_string styles_counts =
  match
    List.map
      (fun (s, n) -> Printf.sprintf "%d %s" n (Resource.style_label s))
      styles_counts
  with
  | [] -> "none"
  | parts -> String.concat ", " parts

let table2 ?(width = 8) () =
  let t =
    Table.create
      [ ("DFG", Table.Left); ("Traditional HLS", Table.Left); ("Testable HLS", Table.Left) ]
  in
  List.iter
    (fun inst ->
      let c = compare_instance ~width inst in
      Table.add_row t
        [
          inst.B.tag;
          mix_string (Allocator.style_counts c.traditional.Flow.bist);
          mix_string (Allocator.style_counts c.testable.Flow.bist);
        ])
    (B.table1 ());
  "Table II. Minimal area BIST solutions (resource mixes; dedicated I/O\n\
   registers included when the search converts them)\n\n"
  ^ Table.to_string t

let count_style counts s =
  match List.assoc_opt s counts with Some n -> n | None -> 0

let table3 ?(width = 8) () =
  let inst = B.paulin () in
  let t =
    Table.create
      [
        ("HLS System", Table.Left); ("Module allocation", Table.Left);
        ("#Reg", Table.Right); ("#TPG", Table.Right); ("#SA", Table.Right);
        ("#BILBO", Table.Right); ("#CBILBO", Table.Right);
      ]
  in
  let row name alloc regs counts =
    Table.add_row t
      [
        name; alloc; string_of_int regs;
        string_of_int (count_style counts Resource.Tpg);
        string_of_int (count_style counts Resource.Sa);
        string_of_int (count_style counts Resource.Bilbo);
        string_of_int (count_style counts Resource.Cbilbo);
      ]
  in
  let r = Ralloc.run ~width inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  row "RALLOC-like"
    (Massign.describe inst.B.massign inst.B.dfg)
    (Regalloc.num_registers r.Ralloc.regalloc)
    (Ralloc.style_counts r);
  let s = Syntest.run ~width inst.B.dfg ~policy:inst.B.policy in
  row "SYNTEST-like"
    (Massign.describe s.Syntest.massign inst.B.dfg)
    (Regalloc.num_registers s.Syntest.regalloc)
    (Syntest.style_counts s);
  let o =
    Flow.run ~width ~style:(Flow.Testable Testable_alloc.default_options) inst.B.dfg
      inst.B.massign ~policy:inst.B.policy
  in
  row "Ours"
    (Massign.describe inst.B.massign inst.B.dfg)
    o.Flow.registers
    (Allocator.style_counts o.Flow.bist);
  "Table III. Design comparison for the Paulin example against the\n\
   RALLOC-like and SYNTEST-like baselines (style counts cover dedicated\n\
   I/O registers too when converted; #Reg counts allocated registers)\n\n"
  ^ Table.to_string t

let fig2 () =
  let inst = B.ex1 () in
  Format.asprintf "Fig. 2. The ex1 scheduled DFG@.@.%a" Dfg.pp inst.B.dfg

let fig4 () =
  let inst = B.ex1 () in
  let g, idx = Lifetime.conflict_graph ~policy:inst.B.policy inst.B.dfg in
  let ctx = Sharing.make inst.B.dfg inst.B.massign in
  let mcs = Chordal.max_clique_size_per_vertex g in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Fig. 4. ex1 variable conflict graph (SD, MCS per vertex)\n\n";
  List.iter
    (fun (i, m) ->
      let v = idx.Lifetime.of_index i in
      let nbrs =
        Ugraph.Iset.elements (Ugraph.neighbors g i)
        |> List.map idx.Lifetime.of_index
        |> String.concat ","
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s: SD=%d MCS=%d  conflicts {%s}\n" v (Sharing.sd_var ctx v) m nbrs))
    mcs;
  let regalloc, trace =
    Testable_alloc.allocate inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  Buffer.add_string buf "\nColoring in reverse PVES order:\n";
  List.iter
    (fun (s : Testable_alloc.trace_step) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s (%s)\n" s.vertex s.chosen s.reason))
    trace;
  Buffer.add_string buf
    (Format.asprintf "final assignment: %a\n" Regalloc.pp regalloc);
  Buffer.contents buf

let fig5 ?(width = 8) () =
  let c = compare_instance ~width (B.ex1 ()) in
  Format.asprintf
    "Fig. 5. Data paths synthesized from ex1@.@.(a) testable allocation:@.%a@.%a@.@.(b) traditional allocation:@.%a@.%a@."
    Datapath.pp c.testable.Flow.datapath Allocator.pp_solution c.testable.Flow.bist
    Datapath.pp c.traditional.Flow.datapath Allocator.pp_solution c.traditional.Flow.bist

let fig1_3 ?(width = 8) () =
  let c = compare_instance ~width (B.ex1 ()) in
  let paths = Ipath.simple_ipaths c.testable.Flow.datapath in
  "Fig. 1/3. Simple I-paths of the ex1 testable data path\n\n  "
  ^ String.concat "\n  " paths ^ "\n"

(* Five purpose-built merge scenarios, one per Fig. 6 case: measure the
   change in 2:1-multiplexer equivalents when the two variables u and v
   share a register instead of sitting in separate ones. *)
let fig6_scenarios () =
  let mk name ops schedule inputs outputs units bind =
    let dfg = Dfg.make ~name ~ops ~inputs ~outputs ~schedule in
    let massign = Massign.make dfg ~units ~bind in
    (dfg, massign)
  in
  let o id kind l r out = { Op.id; kind; left = l; right = r; out } in
  let add_u = o "+1" Op.Add "a" "b" "u" in
  let scen1 =
    mk "case1"
      [ add_u; o "-1" Op.Sub "c" "d" "v"; o "*1" Op.Mul "u" "k" "p"; o "&1" Op.And "v" "m" "q" ]
      [ ("+1", 1); ("-1", 2); ("*1", 2); ("&1", 3) ]
      [ "a"; "b"; "c"; "d"; "k"; "m" ] [ "p"; "q" ]
      [
        { Massign.mid = "ADD"; kinds = [ Op.Add ] };
        { Massign.mid = "SUB"; kinds = [ Op.Sub ] };
        { Massign.mid = "MUL"; kinds = [ Op.Mul ] };
        { Massign.mid = "AND"; kinds = [ Op.And ] };
      ]
      [ ("+1", "ADD"); ("-1", "SUB"); ("*1", "MUL"); ("&1", "AND") ]
  in
  (* v is produced by the very unit that consumes u, so merging u and v
     creates a register -> MUL -> register self-loop. *)
  let scen2 =
    mk "case2"
      [ add_u; o "*1" Op.Mul "u" "c" "w"; o "*2" Op.Mul "g" "h" "v"; o "&1" Op.And "v" "e" "z" ]
      [ ("+1", 1); ("*1", 2); ("*2", 3); ("&1", 4) ]
      [ "a"; "b"; "c"; "e"; "g"; "h" ] [ "w"; "z" ]
      [
        { Massign.mid = "ADD"; kinds = [ Op.Add ] };
        { Massign.mid = "MUL"; kinds = [ Op.Mul ] };
        { Massign.mid = "AND"; kinds = [ Op.And ] };
      ]
      [ ("+1", "ADD"); ("*1", "MUL"); ("*2", "MUL"); ("&1", "AND") ]
  in
  let scen3 =
    mk "case3"
      [ add_u; o "-1" Op.Sub "c" "d" "v"; o "*1" Op.Mul "u" "k" "p"; o "*2" Op.Mul "v" "m" "q" ]
      [ ("+1", 1); ("-1", 2); ("*1", 2); ("*2", 3) ]
      [ "a"; "b"; "c"; "d"; "k"; "m" ] [ "p"; "q" ]
      [
        { Massign.mid = "ADD"; kinds = [ Op.Add ] };
        { Massign.mid = "SUB"; kinds = [ Op.Sub ] };
        { Massign.mid = "MUL"; kinds = [ Op.Mul ] };
      ]
      [ ("+1", "ADD"); ("-1", "SUB"); ("*1", "MUL"); ("*2", "MUL") ]
  in
  let scen4 =
    mk "case4"
      [ add_u; o "+2" Op.Add "c" "d" "v"; o "*1" Op.Mul "u" "k" "p"; o "&1" Op.And "v" "m" "q" ]
      [ ("+1", 1); ("+2", 2); ("*1", 2); ("&1", 3) ]
      [ "a"; "b"; "c"; "d"; "k"; "m" ] [ "p"; "q" ]
      [
        { Massign.mid = "ADD"; kinds = [ Op.Add ] };
        { Massign.mid = "MUL"; kinds = [ Op.Mul ] };
        { Massign.mid = "AND"; kinds = [ Op.And ] };
      ]
      [ ("+1", "ADD"); ("+2", "ADD"); ("*1", "MUL"); ("&1", "AND") ]
  in
  let scen5 =
    mk "case5"
      [ add_u; o "+2" Op.Add "c" "d" "v"; o "*1" Op.Mul "u" "k" "p"; o "*2" Op.Mul "v" "m" "q" ]
      [ ("+1", 1); ("+2", 2); ("*1", 2); ("*2", 3) ]
      [ "a"; "b"; "c"; "d"; "k"; "m" ] [ "p"; "q" ]
      [
        { Massign.mid = "ADD"; kinds = [ Op.Add ] };
        { Massign.mid = "MUL"; kinds = [ Op.Mul ] };
      ]
      [ ("+1", "ADD"); ("+2", "ADD"); ("*1", "MUL"); ("*2", "MUL") ]
  in
  [ scen1; scen2; scen3; scen4; scen5 ]

let fig6 () =
  let t =
    Table.create
      [
        ("Case", Table.Right); ("Situation", Table.Left);
        ("mux inputs split", Table.Right); ("mux inputs merged", Table.Right);
        ("delta", Table.Right); ("self-adjacent after merge", Table.Left);
      ]
  in
  List.iter
    (fun (dfg, massign) ->
      let ctx = Sharing.make dfg massign in
      let case = Merge_cases.classify ctx "u" "v" in
      let spans = Lifetime.spans dfg in
      let split =
        Regalloc.make
          (List.mapi (fun i (v, _) -> (Printf.sprintf "R%d" (i + 1), [ v ])) spans)
      in
      let merged =
        let rec build i acc = function
          | [] -> List.rev acc
          | (v, _) :: rest ->
            if String.equal v "v" then build i acc rest
            else if String.equal v "u" then
              build (i + 1) ((Printf.sprintf "R%d" (i + 1), [ "u"; "v" ]) :: acc) rest
            else build (i + 1) ((Printf.sprintf "R%d" (i + 1), [ v ]) :: acc) rest
        in
        Regalloc.make (build 0 [] spans)
      in
      let dp ra =
        Interconnect.optimize dfg massign ra ~policy:Policy.default
          ~objective:{ Interconnect.weight = (fun _ -> 0) }
      in
      let dps = dp split and dpm = dp merged in
      let ms = Datapath.mux_input_total dps and mm = Datapath.mux_input_total dpm in
      Table.add_row t
        [
          string_of_int (Merge_cases.case_number case);
          Merge_cases.describe case;
          string_of_int ms; string_of_int mm;
          Printf.sprintf "%+d" (mm - ms);
          String.concat "," (Datapath.self_adjacent_registers dpm);
        ])
    (fig6_scenarios ());
  "Fig. 6. Effect of merging variables u and v into one register, by case\n\n"
  ^ Table.to_string t

let ablation ?(width = 8) () =
  let t =
    Table.create
      ([ ("DFG", Table.Left); ("traditional", Table.Right); ("full", Table.Right) ]
      @ [ ("no SD order", Table.Right); ("no cases", Table.Right); ("no CBILBO avoid", Table.Right);
          ("clique-part.", Table.Right) ])
  in
  let variants =
    [
      { Testable_alloc.default_options with sd_ordering = false };
      { Testable_alloc.default_options with case_preferences = false };
      { Testable_alloc.default_options with cbilbo_avoidance = false };
    ]
  in
  let tags =
    [ "ex1"; "ex2"; "Tseng1"; "Tseng2"; "Paulin"; "fir8"; "iir"; "ewf"; "ar"; "dct4" ]
  in
  List.iter
    (fun tag ->
      match B.by_tag tag with
      | None -> ()
      | Some inst ->
        let run style = Flow.run ~width ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy in
        let trad = run Flow.Traditional in
        let full = run (Flow.Testable Testable_alloc.default_options) in
        let alts = List.map (fun o -> run (Flow.Testable o)) variants in
        let cp_overhead =
          let ra = Bistpath_core.Cp_alloc.allocate inst.B.dfg inst.B.massign ~policy:inst.B.policy in
          let dp =
            Interconnect.optimize inst.B.dfg inst.B.massign ra ~policy:inst.B.policy
              ~objective:{ Interconnect.weight = (fun _ -> 0) }
          in
          Allocator.overhead_percent ~width dp (Allocator.solve ~width dp)
        in
        Table.add_row t
          (tag :: pct trad.Flow.overhead_percent :: pct full.Flow.overhead_percent
          :: (List.map (fun r -> pct r.Flow.overhead_percent) alts
             @ [ pct cp_overhead ])))
    tags;
  "Ablation. %BIST overhead with allocator ingredients disabled, plus an\n\
   SD-weighted clique-partitioning allocator as an algorithmic baseline\n\n"
  ^ Table.to_string t

let width_sweep () =
  let widths = [ 4; 8; 16; 32 ] in
  let t =
    Table.create
      (("DFG", Table.Left)
      :: List.map (fun w -> (Printf.sprintf "red%% @%db" w, Table.Right)) widths)
  in
  List.iter
    (fun inst ->
      let reduction w =
        let run style =
          Flow.run ~width:w ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy
        in
        Flow.reduction_percent
          ~traditional:(run Flow.Traditional)
          ~testable:(run (Flow.Testable Testable_alloc.default_options))
      in
      Table.add_row t (inst.B.tag :: List.map (fun w -> pct (reduction w)) widths))
    (B.table1 ());
  "Width sweep. %BIST reduction as datapath width grows: multiplier and\n\
   divider area scales with width^2 while register modifications scale\n\
   with width, so the relative BIST overhead (and the absolute gap the\n\
   testable allocation can win) shrinks on multiplier-heavy designs\n\n"
  ^ Table.to_string t

let testability () =
  let module G = Bistpath_gatelevel in
  let width = 4 in
  let t =
    Table.create
      [
        ("module", Table.Left); ("gates", Table.Right); ("faults", Table.Right);
        ("PODEM tested", Table.Right); ("redundant", Table.Right);
        ("PODEM vectors", Table.Right); ("LFSR cov. % @period", Table.Right);
        ("unif./wght. cov. @24", Table.Left); ("max finite CO", Table.Right);
      ]
  in
  List.iter
    (fun kind ->
      let c = G.Library.of_kind kind ~width in
      let scoap = G.Scoap.analyze c in
      let cls = G.Podem.classify_all c in
      let faults = G.Fault.collapsed c in
      let testable_count = List.length cls.G.Podem.tested in
      let distinct_vectors =
        List.sort_uniq compare (List.map snd cls.G.Podem.tested) |> List.length
      in
      (* smallest LFSR prefix covering every testable fault *)
      let gen_l = G.Lfsr.create ~width ~seed:1 in
      let gen_r = G.Lfsr.create ~width ~seed:7 in
      let all_patterns =
        List.init (G.Lfsr.period ~width) (fun _ -> (G.Lfsr.step gen_l, G.Lfsr.step gen_r))
      in
      (* a two-LFSR pattern source with one polynomial only produces
         "period" distinct operand pairs (the sequences are shifts of
         each other), so report the coverage it reaches at full period *)
      let lfsr_cov =
        let r = G.Fault_sim.run_operand_patterns c ~width ~faults ~patterns:all_patterns in
        100.0 *. float_of_int r.G.Fault_sim.detected /. float_of_int (max 1 testable_count)
      in
      let max_co =
        List.fold_left
          (fun acc i ->
            let o = G.Scoap.co scoap i in
            if o < max_int / 2 then max acc o else acc)
          0
          (Bistpath_util.Listx.range 0 c.G.Circuit.num_nets)
      in
      let wr = G.Weighted.compare_coverage c ~count:24 in
      Table.add_row t
        [
          Op.symbol kind;
          string_of_int (G.Circuit.num_gates c);
          string_of_int (List.length faults);
          string_of_int testable_count;
          string_of_int (List.length cls.G.Podem.untestable);
          string_of_int distinct_vectors;
          Printf.sprintf "%.1f" lfsr_cov;
          Printf.sprintf "%d / %d of %d" wr.G.Weighted.uniform_detected
            wr.G.Weighted.weighted_detected wr.G.Weighted.testable;
          string_of_int max_co;
        ])
    [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.And; Op.Less ];
  Printf.sprintf
    "Gate-level testability of the module library (width %d): SCOAP\n\
     observability, PODEM classification (all faults either tested or\n\
     proven redundant; no aborts), and deterministic-vs-pseudo-random\n\
     test length\n\n"
    width
  ^ Table.to_string t

let transparency () =
  let t =
    Table.create
      [
        ("DFG", Table.Left);
        ("T simple", Table.Right); ("T +transparent", Table.Right);
        ("O simple", Table.Right); ("O +transparent", Table.Right);
      ]
  in
  List.iter
    (fun tag ->
      match B.by_tag tag with
      | None -> ()
      | Some inst ->
        let run tr style =
          (Flow.run ~transparency:tr ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy)
            .Flow.overhead_percent
        in
        let style = Flow.Testable Testable_alloc.default_options in
        Table.add_row t
          [
            tag;
            pct (run false Flow.Traditional); pct (run true Flow.Traditional);
            pct (run false style); pct (run true style);
          ])
    B.all_tags;
  "Transparent I-paths. %BIST overhead when pattern generators may reach\n\
   a port through one transparent unit (adder holding 0, multiplier\n\
   holding 1, ...): the embedding space grows, so the minimal-area\n\
   solution can only improve (T = traditional, O = testable flow)\n\n"
  ^ Table.to_string t

let pareto () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Area vs test time. Pareto-optimal BIST configurations within 50%\n\
     area slack of the minimum: modification gates / test sessions\n\n";
  List.iter
    (fun tag ->
      match B.by_tag tag with
      | None -> ()
      | Some inst ->
        let r =
          Flow.run ~style:(Flow.Testable Testable_alloc.default_options) inst.B.dfg
            inst.B.massign ~policy:inst.B.policy
        in
        let points = Bistpath_bist.Pareto.explore ~minimum:r.Flow.bist r.Flow.datapath in
        Buffer.add_string buf
          (Printf.sprintf "  %-7s %s\n" tag
             (String.concat "  |  "
                (List.map
                   (fun (p : Bistpath_bist.Pareto.point) ->
                     Printf.sprintf "%d gates / %d sess." p.Bistpath_bist.Pareto.delta_gates
                       p.Bistpath_bist.Pareto.sessions)
                   points))))
    [ "ex1"; "ex2"; "Tseng1"; "Tseng2"; "Paulin"; "iir"; "dct4" ];
  Buffer.contents buf

let scan_vs_bist () =
  let t =
    Table.create
      [
        ("DFG", Table.Left); ("scan regs (MFVS)", Table.Left);
        ("scan %area", Table.Right); ("BIST %area (ours)", Table.Right);
        ("BIST self-tests", Table.Left);
      ]
  in
  List.iter
    (fun tag ->
      match B.by_tag tag with
      | None -> ()
      | Some inst ->
        let r =
          Flow.run ~style:(Flow.Testable Testable_alloc.default_options) inst.B.dfg
            inst.B.massign ~policy:inst.B.policy
        in
        let scan = Bistpath_core.Partial_scan.mfvs r.Flow.datapath in
        Table.add_row t
          [
            tag;
            String.concat "," scan;
            pct (Bistpath_core.Partial_scan.overhead_percent r.Flow.datapath);
            pct r.Flow.overhead_percent;
            "yes (no external tester)";
          ])
    B.all_tags;
  "Partial scan vs BIST. Scan conversion of a minimum feedback vertex\n\
   set is cheaper in area, but the circuit is then tested from outside\n\
   through the scan chain; BIST pays register conversions for autonomy\n\n"
  ^ Table.to_string t

let io_sensitivity () =
  let penalties = [ 100; 150; 200; 300 ] in
  let t =
    Table.create
      (("DFG", Table.Left)
      :: List.map (fun p -> (Printf.sprintf "red%% @%dx%02d" (p / 100) (p mod 100), Table.Right)) penalties)
  in
  let tags = [ "ex1"; "Paulin"; "fir8"; "iir"; "ewf" ] in
  List.iter
    (fun tag ->
      match B.by_tag tag with
      | None -> ()
      | Some inst ->
        let reduction p =
          let run style =
            Flow.run ~io_penalty_percent:p ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy
          in
          let trad = run Flow.Traditional in
          let test = run (Flow.Testable Testable_alloc.default_options) in
          Flow.reduction_percent ~traditional:trad ~testable:test
        in
        Table.add_row t (tag :: List.map (fun p -> pct (reduction p)) penalties))
    tags;
  "I/O-conversion-cost sensitivity. %BIST reduction as dedicated I/O\n\
   registers become 1x..3x as expensive to convert as datapath registers\n\
   (benchmarks without dedicated registers are flat by construction)\n\n"
  ^ Table.to_string t
