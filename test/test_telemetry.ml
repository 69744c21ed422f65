(* Telemetry tests: span nesting/ordering under a deterministic clock,
   counter accumulation, the disabled sink being a no-op, Chrome trace
   JSON well-formedness (every B paired with an E), and the end-to-end
   stage spans emitted by Flow.run. *)

module Telemetry = Bistpath_telemetry.Telemetry
module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Clique_partition = Bistpath_graphs.Clique_partition
module Ugraph = Bistpath_graphs.Ugraph

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* Deterministic clock: every read advances 10 ns. *)
let with_fake_clock f =
  let t = ref 0L in
  Telemetry.set_clock (fun () ->
      t := Int64.add !t 10L;
      !t);
  Fun.protect ~finally:Telemetry.use_monotonic_clock f

let span_nesting () =
  with_fake_clock @@ fun () ->
  let (), r =
    Telemetry.collect (fun () ->
        Telemetry.with_span "outer" (fun () ->
            Telemetry.with_span "inner1" (fun () -> ());
            Telemetry.with_span "inner2" (fun () ->
                Telemetry.with_span "leaf" (fun () -> ()))))
  in
  let names = List.map (fun s -> s.Telemetry.name) (Telemetry.spans r) in
  check (Alcotest.list Alcotest.string) "opening order"
    [ "outer"; "inner1"; "inner2"; "leaf" ] names;
  let depths = List.map (fun s -> s.Telemetry.depth) (Telemetry.spans r) in
  check (Alcotest.list Alcotest.int) "depths" [ 0; 1; 1; 2 ] depths;
  let parents = List.map (fun s -> s.Telemetry.parent) (Telemetry.spans r) in
  check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "parents" [ None; Some 0; Some 0; Some 2 ] parents;
  List.iter
    (fun s -> check Alcotest.bool "closed with positive duration" true (s.Telemetry.dur_ns > 0L))
    (Telemetry.spans r);
  (* the outer span spans all clock ticks of its children *)
  check Alcotest.bool "outer dominates" true
    (Telemetry.total_ns r "outer" > Telemetry.total_ns r "inner2")

let span_closes_on_raise () =
  with_fake_clock @@ fun () ->
  let (), r =
    Telemetry.collect (fun () ->
        try Telemetry.with_span "boom" (fun () -> failwith "x")
        with Failure _ -> ())
  in
  match Telemetry.spans r with
  | [ s ] ->
    check Alcotest.string "name" "boom" s.Telemetry.name;
    check Alcotest.bool "closed" true (s.Telemetry.dur_ns >= 0L)
  | ss -> Alcotest.failf "expected 1 span, got %d" (List.length ss)

let counter_accumulation () =
  let (), r =
    Telemetry.collect (fun () ->
        Telemetry.incr "a";
        Telemetry.incr "a" ~by:4;
        Telemetry.incr "b" ~by:2;
        Telemetry.set "g" 7;
        Telemetry.set "g" 3)
  in
  check Alcotest.int "a accumulates" 5 (Telemetry.counter r "a");
  check Alcotest.int "b" 2 (Telemetry.counter r "b");
  check Alcotest.int "gauge takes last value" 3 (Telemetry.counter r "g");
  check Alcotest.int "untouched" 0 (Telemetry.counter r "zzz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted" [ ("a", 5); ("b", 2); ("g", 3) ] (Telemetry.counters r)

let span_counter_deltas () =
  let (), r =
    Telemetry.collect (fun () ->
        Telemetry.incr "pre";
        Telemetry.with_span "s" (fun () -> Telemetry.incr "in" ~by:3))
  in
  match List.filter (fun s -> s.Telemetry.name = "s") (Telemetry.spans r) with
  | [ s ] ->
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
      "only in-span deltas" [ ("in", 3) ] s.Telemetry.counters
  | _ -> Alcotest.fail "missing span"

let disabled_is_noop () =
  check Alcotest.bool "disabled by default" false (Telemetry.enabled ());
  (* none of these may record or raise *)
  Telemetry.incr "a";
  Telemetry.set "g" 1;
  let x = Telemetry.with_span "s" (fun () -> 41 + 1) in
  check Alcotest.int "with_span is transparent" 42 x;
  (* a later recording starts empty: nothing leaked into a global *)
  let (), r = Telemetry.collect (fun () -> ()) in
  check Alcotest.int "no spans" 0 (List.length (Telemetry.spans r));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "no counters" [] (Telemetry.counters r)

(* --- minimal JSON parser, for validating exporter output ----------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

let parse_json text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            advance ()
          done;
          Buffer.add_char buf '?'
        | Some c ->
          advance ();
          Buffer.add_char buf c
        | None -> fail "bad escape");
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when is_num c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    float_of_string (String.sub text start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Jobj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Jobj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Jarr [])
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            Jarr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let field name = function
  | Jobj kvs -> List.assoc_opt name kvs
  | _ -> None

let check_b_e_balanced events =
  let stack =
    List.fold_left
      (fun stack ev ->
        match (field "ph" ev, field "name" ev) with
        | Some (Jstr "B"), Some (Jstr n) -> n :: stack
        | Some (Jstr "E"), Some (Jstr n) -> (
          match stack with
          | top :: rest ->
            check Alcotest.string "E matches innermost B" top n;
            rest
          | [] -> Alcotest.fail "E without open B")
        | Some (Jstr ("C" | "X" | "i")), _ -> stack
        | _ -> Alcotest.fail "event missing ph/name")
      [] events
  in
  check (Alcotest.list Alcotest.string) "all B closed" [] stack

let chrome_trace_well_formed () =
  with_fake_clock @@ fun () ->
  let (), r =
    Telemetry.collect (fun () ->
        Telemetry.with_span "a" (fun () ->
            Telemetry.with_span "b" (fun () -> Telemetry.incr "n" ~by:2);
            Telemetry.with_span "c" (fun () -> ())))
  in
  let json = parse_json (Telemetry.chrome_trace_json r) in
  match field "traceEvents" json with
  | Some (Jarr events) ->
    check_b_e_balanced events;
    let phs =
      List.filter_map
        (fun e -> match field "ph" e with Some (Jstr p) -> Some p | _ -> None)
        events
    in
    check Alcotest.int "3 B events" 3 (List.length (List.filter (( = ) "B") phs));
    check Alcotest.int "3 E events" 3 (List.length (List.filter (( = ) "E") phs));
    check Alcotest.int "1 C event" 1 (List.length (List.filter (( = ) "C") phs))
  | _ -> Alcotest.fail "no traceEvents array"

(* --- histograms ---------------------------------------------------- *)

module H = Telemetry.Histogram

let histogram_bucket_boundaries () =
  (* bucket 0 holds 0 (and clamped negatives); bucket k holds
     [2^(k-1), 2^k - 1] *)
  List.iter
    (fun (v, b) ->
      check Alcotest.int (Printf.sprintf "bucket_of %d" v) b (H.bucket_of v))
    [ (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (1023, 10); (1024, 11); (max_int, 62) ];
  check Alcotest.int "lower 0" 0 (H.bucket_lower 0);
  check Alcotest.int "lower 3" 4 (H.bucket_lower 3);
  check Alcotest.int "upper 0" 0 (H.bucket_upper 0);
  check Alcotest.int "upper 3" 7 (H.bucket_upper 3);
  check Alcotest.int "last bucket absorbs everything" max_int (H.bucket_upper 62)

let histogram_empty_and_single () =
  let h = H.create () in
  check Alcotest.int "empty count" 0 (H.count h);
  check Alcotest.int "empty quantile" 0 (H.quantile h 0.5);
  check Alcotest.int "empty min" 0 (H.min_value h);
  check (Alcotest.float 0.0) "empty mean" 0.0 (H.mean h);
  H.observe h 777;
  (* one sample: min = max = 777, so every quantile is exact *)
  List.iter
    (fun q ->
      check Alcotest.int (Printf.sprintf "single sample q=%g" q) 777 (H.quantile h q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  check Alcotest.int "single count" 1 (H.count h);
  check Alcotest.int "single sum" 777 (H.sum h);
  H.observe h (-3);
  check Alcotest.int "negatives clamp to 0" 0 (H.min_value h);
  check Alcotest.int "clamped sum unchanged" 777 (H.sum h)

let histogram_quantiles () =
  let h = H.create () in
  List.iter (H.observe h) [ 1; 2; 3; 4 ];
  (* buckets: 1 -> b1 (ub 1), {2,3} -> b2 (ub 3), 4 -> b3 (ub 7 clamped
     to max=4). Ranks: q=.25 -> 1st, q=.5 -> 2nd, q=1 -> 4th. *)
  check Alcotest.int "q=0.25" 1 (H.quantile h 0.25);
  check Alcotest.int "q=0.5" 3 (H.quantile h 0.5);
  check Alcotest.int "q=1.0 clamps to max" 4 (H.quantile h 1.0);
  check Alcotest.int "min" 1 (H.min_value h);
  check Alcotest.int "max" 4 (H.max_value h);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "nonzero buckets (lower bound, count)"
    [ (1, 1); (2, 2); (4, 1) ]
    (H.nonzero_buckets h)

let histogram_merge () =
  let a = H.create () and b = H.create () in
  H.observe a 1;
  H.observe a 2;
  H.observe b 100;
  H.merge_into ~into:a b;
  check Alcotest.int "merged count" 3 (H.count a);
  check Alcotest.int "merged sum" 103 (H.sum a);
  check Alcotest.int "merged min" 1 (H.min_value a);
  check Alcotest.int "merged max" 100 (H.max_value a);
  check Alcotest.int "merged q=1" 100 (H.quantile a 1.0);
  (* src unchanged *)
  check Alcotest.int "src count" 1 (H.count b);
  (* merging an empty histogram is the identity *)
  H.merge_into ~into:a (H.create ());
  check Alcotest.int "empty merge identity" 3 (H.count a)

let recorder_observe () =
  let (), r =
    Telemetry.collect (fun () ->
        Telemetry.observe "lat" 5;
        Telemetry.observe "lat" 9)
  in
  (match Telemetry.histogram r "lat" with
  | Some h ->
    check Alcotest.int "count" 2 (H.count h);
    check Alcotest.int "sum" 14 (H.sum h)
  | None -> Alcotest.fail "histogram missing");
  check (Alcotest.option Alcotest.unit) "absent name" None
    (Option.map ignore (Telemetry.histogram r "nope"));
  check Alcotest.int "histograms list" 1 (List.length (Telemetry.histograms r));
  (* disabled observe records nothing *)
  Telemetry.observe "leak" 1;
  let (), r2 = Telemetry.collect (fun () -> ()) in
  check Alcotest.int "no leak" 0 (List.length (Telemetry.histograms r2))

let recorder_merge_into () =
  let (), inner =
    Telemetry.collect (fun () ->
        Telemetry.incr "c" ~by:3;
        Telemetry.set "g" 7;
        Telemetry.observe "h" 50)
  in
  let (), outer =
    Telemetry.collect (fun () ->
        Telemetry.incr "c" ~by:2;
        Telemetry.observe "h" 5)
  in
  Telemetry.merge_into ~into:outer inner;
  check Alcotest.int "counters add" 5 (Telemetry.counter outer "c");
  check Alcotest.int "gauge takes src value" 7 (Telemetry.counter outer "g");
  check Alcotest.bool "gauge marked" true (Telemetry.is_gauge outer "g");
  (match Telemetry.histogram outer "h" with
  | Some h ->
    check Alcotest.int "hists merge" 2 (H.count h);
    check Alcotest.int "hist sum" 55 (H.sum h)
  | None -> Alcotest.fail "merged histogram missing");
  (* spans and sample streams deliberately do not merge *)
  check Alcotest.int "no spans copied" 0 (List.length (Telemetry.spans outer));
  Alcotest.check_raises "self-merge rejected"
    (Invalid_argument "Telemetry.merge_into: cannot merge a recorder into itself")
    (fun () -> Telemetry.merge_into ~into:outer outer)

let prometheus_exposition () =
  let (), r =
    Telemetry.collect (fun () ->
        Telemetry.incr "service.jobs_completed" ~by:2;
        Telemetry.incr "9weird-name";
        Telemetry.set "service.queue_depth" 5;
        List.iter (Telemetry.observe "service.job_ns") [ 100; 200; 400 ])
  in
  let text = Telemetry.prometheus_text r in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    check Alcotest.bool (Printf.sprintf "contains %S" needle) true (go 0)
  in
  has "# HELP bistpath_service_jobs_completed_total bistpath metric service.jobs_completed\n";
  has "# TYPE bistpath_service_jobs_completed_total counter\n";
  has "bistpath_service_jobs_completed_total 2\n";
  (* leading digit guarded, punctuation squashed *)
  has "# TYPE bistpath__9weird_name_total counter\n";
  has "# TYPE bistpath_service_queue_depth gauge\n";
  has "bistpath_service_queue_depth 5\n";
  has "# TYPE bistpath_service_job_ns summary\n";
  has "bistpath_service_job_ns{quantile=\"0.5\"} ";
  has "bistpath_service_job_ns{quantile=\"0.9\"} ";
  has "bistpath_service_job_ns{quantile=\"0.99\"} ";
  has "bistpath_service_job_ns_sum 700\n";
  has "bistpath_service_job_ns_count 3\n"

let chrome_trace_gauge_instant_track () =
  with_fake_clock @@ fun () ->
  let (), r =
    Telemetry.collect (fun () ->
        Telemetry.with_span "work" (fun () ->
            Telemetry.set "depth" 1;
            Telemetry.set "depth" 2;
            Telemetry.instant "trip" ~attrs:[ ("reason", "deadline") ];
            Telemetry.add_timed ~track:3 "chunk" ~start_ns:5L ~dur_ns:10L))
  in
  let json = parse_json (Telemetry.chrome_trace_json r) in
  match field "traceEvents" json with
  | Some (Jarr events) ->
    check_b_e_balanced events;
    let with_ph p =
      List.filter (fun e -> field "ph" e = Some (Jstr p)) events
    in
    (* one C per gauge write plus the final-value C at trace end *)
    check Alcotest.int "C events" 3 (List.length (with_ph "C"));
    (match with_ph "X" with
    | [ x ] ->
      check (Alcotest.option Alcotest.bool) "X on its track" (Some true)
        (match field "tid" x with Some (Jnum t) -> Some (t = 3.0) | _ -> None)
    | xs -> Alcotest.failf "expected 1 X event, got %d" (List.length xs));
    (match with_ph "i" with
    | [ i ] ->
      check (Alcotest.option Alcotest.string) "instant name" (Some "trip")
        (match field "name" i with Some (Jstr n) -> Some n | _ -> None);
      check (Alcotest.option Alcotest.string) "global scope" (Some "g")
        (match field "s" i with Some (Jstr s) -> Some s | _ -> None)
    | is -> Alcotest.failf "expected 1 i event, got %d" (List.length is))
  | _ -> Alcotest.fail "no traceEvents array"

let bounded_sample_streams () =
  let (), r =
    Telemetry.collect (fun () ->
        for _ = 1 to 4097 do
          Telemetry.instant "m"
        done)
  in
  check Alcotest.int "instants capped" 4096 (List.length (Telemetry.instants r));
  check Alcotest.int "overflow counted" 1
    (Telemetry.counter r "telemetry.dropped_samples")

(* decoded by the library's own parser: the test's [parse_json] does not
   unescape *)
let chrome_trace_escapes_names () =
  let module Json = Bistpath_util.Json in
  let weird = "weird \"name\"\n" in
  let (), r =
    Telemetry.collect (fun () -> Telemetry.with_span weird (fun () -> Telemetry.incr weird))
  in
  let events =
    match Json.parse (Telemetry.chrome_trace_json r) with
    | Ok (Json.Obj kvs) -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json.Arr events) -> events
      | _ -> Alcotest.fail "no traceEvents array")
    | Ok _ -> Alcotest.fail "not a JSON object"
    | Error e -> Alcotest.failf "not JSON: %s" e
  in
  let names ph =
    List.filter_map
      (function
        | Json.Obj kvs when List.assoc_opt "ph" kvs = Some (Json.Str ph) -> (
          match List.assoc_opt "name" kvs with Some (Json.Str n) -> Some n | _ -> None)
        | _ -> None)
      events
  in
  check Alcotest.(list string) "span name round-trips" [ weird ] (names "B");
  check Alcotest.(list string) "counter name round-trips" [ weird ] (names "C")

let greedy_clique_counters () =
  let g = Ugraph.of_edges ~vertices:[ 0; 1; 2 ] [ (0, 1); (1, 2); (0, 2) ] in
  let parts, r = Telemetry.collect (fun () -> Clique_partition.greedy g) in
  check Alcotest.int "one clique" 1 (List.length parts);
  check Alcotest.int "two merges" 2 (Telemetry.counter r "clique.merges");
  check Alcotest.bool "iterations counted" true
    (Telemetry.counter r "clique.iterations" >= 2)

let flow_stage_spans () =
  let inst = B.ex1 () in
  let _, r =
    Telemetry.collect (fun () ->
        Flow.run
          ~style:(Flow.Testable Testable_alloc.default_options)
          inst.B.dfg inst.B.massign ~policy:inst.B.policy)
  in
  List.iter
    (fun name ->
      check Alcotest.int (name ^ " appears exactly once") 1
        (Telemetry.span_count r name))
    [ "flow"; "regalloc"; "interconnect"; "bist_alloc"; "sessions" ];
  (* stage spans nest under the flow root *)
  List.iter
    (fun s ->
      if s.Telemetry.name <> "flow" then
        check (Alcotest.option Alcotest.int) (s.Telemetry.name ^ " parented") (Some 0)
          s.Telemetry.parent)
    (Telemetry.spans r);
  check Alcotest.bool "regalloc steps counted" true
    (Telemetry.counter r "regalloc.steps" > 0);
  check Alcotest.bool "bist candidates counted" true
    (Telemetry.counter r "bist.embedding_candidates" > 0);
  check Alcotest.bool "gauges set" true (Telemetry.counter r "regs.allocated" > 0)

(* The fleet's heartbeat domain bumps counters and records track events
   while the main domain does too; the mutex-guarded recorder must lose
   neither. *)
let concurrent_domains () =
  let n = 500 in
  let (), r =
    Telemetry.collect (fun () ->
        let bump track () =
          for i = 1 to n do
            Telemetry.incr "test.concurrent_incr";
            if i mod 100 = 0 then
              Telemetry.add_timed ~track "tick" ~start_ns:(Telemetry.now ()) ~dur_ns:1L
          done
        in
        let others = List.init 2 (fun k -> Domain.spawn (bump (k + 2))) in
        bump 1 ();
        List.iter Domain.join others)
  in
  check Alcotest.int "every increment counted" (3 * n)
    (Telemetry.counter r "test.concurrent_incr");
  check Alcotest.int "every track event kept" 15 (List.length (Telemetry.track_events r))

let suite =
  [
    case "span nesting and ordering" span_nesting;
    case "span closes on raise" span_closes_on_raise;
    case "counter accumulation" counter_accumulation;
    case "per-span counter deltas" span_counter_deltas;
    case "disabled sink is a no-op" disabled_is_noop;
    case "chrome trace well-formed, B/E paired" chrome_trace_well_formed;
    case "histogram bucket boundaries" histogram_bucket_boundaries;
    case "histogram empty and single sample" histogram_empty_and_single;
    case "histogram quantile estimation" histogram_quantiles;
    case "histogram merge" histogram_merge;
    case "recorder observe into histograms" recorder_observe;
    case "merge_into folds scalar aggregates" recorder_merge_into;
    case "prometheus exposition format" prometheus_exposition;
    case "chrome trace gauge/instant/track events" chrome_trace_gauge_instant_track;
    case "bounded sample streams drop and count" bounded_sample_streams;
    case "chrome trace escapes span names" chrome_trace_escapes_names;
    case "clique partition counters" greedy_clique_counters;
    case "flow emits each stage span once" flow_stage_spans;
    case "counters survive concurrent domains" concurrent_domains;
  ]
