(* The BIST allocation fixture: test/fixtures/bist_trace.tsv pins, for
   every perfbench design in both flows, the minimal-area solution of
   [Allocator.solve] under four variants (default, the SYNTEST template
   that forbids BILBO and CBILBO, a 150% I/O conversion penalty, and
   transparent I-paths): the chosen embeddings with their [via] units,
   every register's style, the cost, exactness, the untestable units
   and the number of search nodes explored. A change in the search order
   or a tie-break shows up as a line diff. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Ipath = Bistpath_ipath.Ipath
module Resource = Bistpath_bist.Resource
module Allocator = Bistpath_bist.Allocator
module Telemetry = Bistpath_telemetry.Telemetry

let designs = Test_regalloc_trace.(tags @ data)
let flows = Test_gatelevel_trace.flows
let row = Test_regalloc_trace.row

(* Name, forbidden styles, I/O penalty and transparency. *)
let variants =
  [ ("default", [], 100, false);
    ("syntest", [ Resource.Bilbo; Resource.Cbilbo ], 100, false);
    ("io150", [], 150, false);
    ("transparent", [], 100, true) ]

let embedding (e : Ipath.embedding) =
  let via = function None -> "" | Some u -> "~" ^ u in
  Printf.sprintf "%s:%s%s/%s%s/%s" e.mid e.l_tpg (via e.l_via) e.r_tpg (via e.r_via) e.sa

let solution_rows spec =
  List.concat_map
    (fun (flow, style) ->
      let r = Test_gatelevel_trace.flow_result ~width:8 spec style in
      List.map
        (fun (variant, forbidden, io_penalty_percent, transparency) ->
          let sol, t =
            Telemetry.collect (fun () ->
                Allocator.solve ~forbidden ~io_penalty_percent ~transparency r.Flow.datapath)
          in
          row
            [ "bist"; spec; flow; variant;
              String.concat "," (List.map embedding sol.Allocator.embeddings);
              String.concat ","
                (List.map
                   (fun (rid, s) -> rid ^ "=" ^ Resource.style_label s)
                   sol.Allocator.styles);
              string_of_int sol.Allocator.delta_gates; string_of_bool sol.Allocator.exact;
              String.concat "," sol.Allocator.untestable;
              string_of_int (Telemetry.counter t "bist.embeddings_explored") ])
        variants)
    flows

let render () =
  String.concat ""
    ("# kind\tdesign\tflow\tvariant\tembeddings (unit:left[~via]/right[~via]/sa)\t\
      styles\tdelta_gates\texact\tuntestable\tbist.embeddings_explored\n"
    :: List.concat_map solution_rows designs)

let fixture = Filename.concat "fixtures" "bist_trace.tsv"

let reproduces_fixture () =
  let expected =
    In_channel.with_open_text fixture In_channel.input_all |> String.split_on_char '\n'
  in
  Test_regalloc_trace.first_diff 1 (expected, String.split_on_char '\n' (render ()))

(* The same searches against the one without the bound memo
   (Oracles.bist_solve): the same solution wherever that one finishes
   under the node cap, and never more nodes. *)
let matches_unmemoized_oracle () =
  List.iter
    (fun spec ->
      List.iter
        (fun (flow, style) ->
          let dp = (Test_gatelevel_trace.flow_result ~width:8 spec style).Flow.datapath in
          List.iter
            (fun (variant, forbidden, io_penalty_percent, transparency) ->
              let name = String.concat " " [ spec; flow; variant ] in
              let sol, t =
                Telemetry.collect (fun () ->
                    Allocator.solve ~forbidden ~io_penalty_percent ~transparency dp)
              in
              let osol, onodes =
                Oracles.bist_solve ~forbidden ~io_penalty_percent ~transparency dp
              in
              if osol.Allocator.exact then Alcotest.(check bool) name true (sol = osol);
              Alcotest.(check bool)
                (name ^ " nodes") true
                (Telemetry.counter t "bist.embeddings_explored" <= onodes))
            variants)
        flows)
    designs

let suite =
  [ Alcotest.test_case "fixture reproduces" `Quick reproduces_fixture;
    Alcotest.test_case "solutions match the unmemoized oracle" `Quick matches_unmemoized_oracle ]
