(* Benchmark regression gate: diffs fresh BENCH_telemetry.json /
   BENCH_service.json / BENCH_cache.json runs against a committed
   baseline and fails loudly (exit 1) when a wall-time entry regressed
   beyond tolerance.

   Raw nanosecond timings are machine-dependent, so the default mode is
   *calibrated*: the median current/baseline ratio across all compared
   entries estimates the machine-speed factor, and each entry is judged
   by how far it departs from that shared factor. A uniformly 2x-slower
   CI runner therefore passes, while one stage blowing up relative to
   its peers fails. --absolute opts out (useful when baseline and run
   come from the same machine, e.g. the perturbation self-test in CI).

   Exit codes: 0 within tolerance, 1 regression, 2 usage or I/O error. *)

module Json = Bistpath_util.Json

let telemetry_file = "BENCH_telemetry.json"
let service_file = "BENCH_service.json"
let cache_file = "BENCH_cache.json"

let usage () =
  prerr_endline
    "usage: compare [--baseline FILE] [--update] [--tolerance PCT] [--min-ns NS]\n\
    \               [--absolute] [--dir DIR]\n\n\
     Compares BENCH_telemetry.json, BENCH_service.json and\n\
     BENCH_cache.json (in DIR, default .)\n\
     against the baseline (default BENCH_baseline.json).\n\n\
    \  --update      write the baseline from the current BENCH files and exit\n\
    \  --tolerance   allowed slowdown per entry, percent (default 25)\n\
    \  --min-ns      ignore entries whose baseline is below this floor\n\
    \                (default 10000 ns: sub-10us spans are scheduler noise)\n\
    \  --absolute    skip median-ratio machine calibration\n";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let read_json path =
  if not (Sys.file_exists path) then fail "%s: no such file (run bench/main.exe first?)" path;
  let text = In_channel.with_open_text path In_channel.input_all in
  match Json.parse text with
  | Ok v -> v
  | Error e -> fail "%s: invalid JSON: %s" path e

let mem_num name obj = Option.bind (Json.member name obj) Json.to_num
let mem_str name obj = Option.bind (Json.member name obj) Json.to_str

(* --- entry extraction: (key, ns) per BENCH record ------------------ *)

(* Span names repeat across benches (and nest), so the telemetry key is
   bench-qualified; duplicate keys within one file sum, keeping the key
   space stable however the span tree is shaped. *)
let telemetry_entries json =
  match Json.to_list json with
  | None -> fail "%s: expected a top-level array" telemetry_file
  | Some records ->
    List.filter_map
      (fun r ->
        match (mem_str "bench" r, mem_str "stage" r, mem_num "ns" r) with
        | Some bench, Some stage, Some ns when ns >= 0.0 ->
          Some (Printf.sprintf "telemetry/%s/%s" bench stage, ns)
        | _ -> None)
      records

let service_entries json =
  match Json.to_list json with
  | None -> fail "%s: expected a top-level array" service_file
  | Some records ->
    List.filter_map
      (fun r ->
        match (mem_str "scenario" r, mem_num "wall_ns" r) with
        | Some scenario, Some ns when ns >= 0.0 ->
          Some ("service/" ^ scenario, ns)
        | _ -> None)
      records

(* Cold captures the full-pipeline cost, warm the cache-served path;
   gating both keeps an eye on store overhead as well as flow speed.
   (Warm entries are usually under --min-ns and drop out of the diff —
   by design: microsecond-scale cache reads are scheduler noise.) *)
let cache_entries json =
  match Json.to_list json with
  | None -> fail "%s: expected a top-level array" cache_file
  | Some records ->
    List.concat_map
      (fun r ->
        match mem_str "bench" r with
        | Some bench ->
          let entry side name =
            match mem_num name r with
            | Some ns when ns >= 0.0 ->
              [ (Printf.sprintf "cache/%s/%s" bench side, ns) ]
            | _ -> []
          in
          entry "cold" "cold_ns" @ entry "warm" "warm_ns"
        | None -> [])
      records

let collect_entries ~dir =
  let in_dir f = Filename.concat dir f in
  let all =
    telemetry_entries (read_json (in_dir telemetry_file))
    @ service_entries (read_json (in_dir service_file))
    @ cache_entries (read_json (in_dir cache_file))
  in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (k, ns) ->
      match Hashtbl.find_opt tbl k with
      | Some prev -> Hashtbl.replace tbl k (prev +. ns)
      | None ->
        Hashtbl.add tbl k ns;
        order := k :: !order)
    all;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order |> List.rev

(* --- baseline I/O --------------------------------------------------- *)

let write_baseline path entries =
  let fields =
    List.map (fun (k, ns) -> (k, Json.Num (Float.round ns))) entries
  in
  let doc = Json.Obj [ ("entries", Json.Obj fields) ] in
  Bistpath_util.Atomic_io.write_file path (Json.to_string doc ^ "\n");
  Printf.printf "compare: wrote %s (%d entries)\n" path (List.length fields)

let read_baseline path =
  let json = read_json path in
  match Option.bind (Json.member "entries" json) (fun e ->
      match e with Json.Obj fields -> Some fields | _ -> None)
  with
  | None -> fail "%s: expected {\"entries\":{...}}" path
  | Some fields ->
    List.filter_map
      (fun (k, v) -> match Json.to_num v with Some ns -> Some (k, ns) | None -> None)
      fields

(* --- comparison ----------------------------------------------------- *)

let median = function
  | [] -> 1.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let () =
  let baseline_path = ref "BENCH_baseline.json" in
  let dir = ref "." in
  let tolerance = ref 25.0 in
  let min_ns = ref 10_000.0 in
  let absolute = ref false in
  let update = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
      baseline_path := v;
      parse_args rest
    | "--dir" :: v :: rest ->
      dir := v;
      parse_args rest
    | "--tolerance" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t >= 0.0 ->
        tolerance := t;
        parse_args rest
      | _ -> fail "--tolerance %s: expected a non-negative number" v)
    | "--min-ns" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t >= 0.0 ->
        min_ns := t;
        parse_args rest
      | _ -> fail "--min-ns %s: expected a non-negative number" v)
    | "--absolute" :: rest ->
      absolute := true;
      parse_args rest
    | "--update" :: rest ->
      update := true;
      parse_args rest
    | ("--help" | "-h") :: _ -> usage ()
    | a :: _ -> fail "unknown argument %s (try --help)" a
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let current = collect_entries ~dir:!dir in
  if current = [] then fail "no comparable entries found in the BENCH files";
  if !update then write_baseline !baseline_path current
  else begin
    let base = read_baseline !baseline_path in
    let base_tbl = Hashtbl.create 64 in
    List.iter (fun (k, ns) -> Hashtbl.replace base_tbl k ns) base;
    let compared =
      List.filter_map
        (fun (k, cur) ->
          match Hashtbl.find_opt base_tbl k with
          | Some b when b >= !min_ns && b > 0.0 -> Some (k, b, cur)
          | _ -> None)
        current
    in
    if compared = [] then
      fail "no entries shared with %s exceed --min-ns %.0f" !baseline_path !min_ns;
    let cal =
      if !absolute then 1.0
      else median (List.map (fun (_, b, c) -> c /. b) compared)
    in
    let cal = if cal <= 0.0 then 1.0 else cal in
    let limit = 1.0 +. (!tolerance /. 100.0) in
    let regressions =
      List.filter (fun (_, b, c) -> c /. b /. cal > limit) compared
    in
    let missing =
      List.filter (fun (k, _) -> not (List.mem_assoc k current)) base
    in
    Printf.printf
      "compare: %d entr%s compared (tolerance %.0f%%, min %.0f ns%s)\n"
      (List.length compared)
      (if List.length compared = 1 then "y" else "ies")
      !tolerance !min_ns
      (if !absolute then ", absolute"
       else Printf.sprintf ", machine factor %.2fx" cal);
    List.iter
      (fun (k, _) -> Printf.printf "  note: %s missing from the current run\n" k)
      missing;
    List.iter
      (fun (k, b, c) ->
        Printf.printf "  REGRESSION %-45s baseline %12.0f ns -> %12.0f ns (%.2fx%s)\n"
          k b c (c /. b)
          (if !absolute then "" else Printf.sprintf ", %.2fx calibrated" (c /. b /. cal)))
      regressions;
    if regressions <> [] then begin
      Printf.printf "compare: %d regression(s) beyond %.0f%%\n"
        (List.length regressions) !tolerance;
      exit 1
    end
    else print_endline "compare: ok"
  end
