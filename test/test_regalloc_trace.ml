(* The register-allocation and module-assignment decision fixture:
   test/fixtures/regalloc_trace.tsv pins, for every perfbench design,
   the single-function module binding of each data/*.dfg file, the final
   classes and the whole decision trace of the testable allocator under
   all eight option combinations, and the allocator's work counters on
   the slowest designs. Any change to a tie-break shows up here as a
   line diff. *)

module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module B = Bistpath_benchmarks.Benchmarks
module Regalloc = Bistpath_datapath.Regalloc
module Runner = Bistpath_service.Runner
module Testable_alloc = Bistpath_core.Testable_alloc
module Telemetry = Bistpath_telemetry.Telemetry

let tags = [ "ex1"; "ex2"; "Tseng1"; "Tseng2"; "Paulin"; "fir8"; "iir"; "ewf"; "ar"; "dct4" ]

let data =
  [ "Paulin"; "Tseng1"; "ar"; "clip8"; "cmp4"; "dct4"; "ewf"; "ex1"; "ex2"; "fir32";
    "fir8"; "iir"; "minmax4" ]
  |> List.map (Printf.sprintf "data/%s.dfg")

let counted = [ "ewf"; "data/ewf.dfg"; "data/fir32.dfg" ]

let counter_names =
  [ "regalloc.steps"; "regalloc.sd_evals"; "regalloc.cbilbo_avoided";
    "clique.iterations"; "clique.merges" ]

(* Data files are read relative to the test directory. A file's module
   assignment runs here, inside whatever recorder the caller installed. *)
let load spec =
  let path = if B.by_tag spec = None then Filename.concat ".." spec else spec in
  match Runner.load_instance path with
  | Ok inst -> inst
  | Error lines -> failwith (String.concat "\n" lines)

let all_options =
  List.concat_map
    (fun sd ->
      List.concat_map
        (fun cs ->
          List.map
            (fun cb ->
              { Testable_alloc.sd_ordering = sd; case_preferences = cs;
                cbilbo_avoidance = cb })
            [ true; false ])
        [ true; false ])
    [ true; false ]

let options_label (o : Testable_alloc.options) =
  let b x = if x then "1" else "0" in
  Printf.sprintf "sd%s,case%s,cbilbo%s" (b o.sd_ordering) (b o.case_preferences)
    (b o.cbilbo_avoidance)

let row fields = String.concat "\t" fields ^ "\n"

let massign_rows spec =
  let inst = load spec in
  List.map
    (fun (op : Op.t) ->
      row [ "massign"; spec; op.id; Dfg.Smap.find op.id inst.B.massign.of_op ])
    inst.B.dfg.Dfg.ops

let alloc_rows spec =
  let inst = load spec in
  List.concat_map
    (fun options ->
      let label = options_label options in
      let ra, trace =
        Testable_alloc.allocate ~options inst.B.dfg inst.B.massign ~policy:inst.B.policy
      in
      List.map
        (fun (rid, vars) -> row [ "class"; spec; label; rid; String.concat "," vars ])
        ra.Regalloc.classes
      @ List.map
          (fun (s : Testable_alloc.trace_step) ->
            row
              [ "step"; spec; label; s.vertex; s.chosen; string_of_bool s.fresh; s.reason ])
          trace)
    all_options

let counter_rows spec =
  let (), t =
    Telemetry.collect (fun () ->
        let inst = load spec in
        ignore (Testable_alloc.allocate inst.B.dfg inst.B.massign ~policy:inst.B.policy))
  in
  List.map
    (fun name -> row [ "counter"; spec; name; string_of_int (Telemetry.counter t name) ])
    counter_names

let render () =
  String.concat ""
    ("# kind\tdesign\tfields (massign: op unit; class: options rid vars; step: \
      options vertex chosen fresh reason; counter: name value)\n"
    :: List.concat_map massign_rows data
    @ List.concat_map alloc_rows (tags @ data)
    @ List.concat_map counter_rows counted)

let fixture = Filename.concat "fixtures" "regalloc_trace.tsv"

(* Compare line by line so a failure names the first decision that
   moved, not a megabyte-long string. *)
let rec first_diff i = function
  | e :: es, a :: as_ ->
    if String.equal e a then first_diff (i + 1) (es, as_)
    else Alcotest.failf "line %d: expected %S, got %S" i e a
  | [], [] -> ()
  | e :: _, [] -> Alcotest.failf "line %d: expected %S, got end of output" i e
  | [], a :: _ -> Alcotest.failf "line %d: unexpected %S" i a

let reproduces_fixture () =
  let expected =
    In_channel.with_open_text fixture In_channel.input_all |> String.split_on_char '\n'
  in
  first_diff 1 (expected, render () |> String.split_on_char '\n')

let suite = [ Alcotest.test_case "fixture reproduces" `Quick reproduces_fixture ]
