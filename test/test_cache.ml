(* The content-addressed result cache: canonical JSON keys, the on-disk
   store (round-trip, corruption, GC, fault injection), the terminal
   artifacts Runner.execute caches (pinned keys, corruption and I/O
   faults, the pipelines it never caches), warm-cache byte-identity for
   every data/*.dfg through the CLI, and the cache-served latency split
   in service mode. *)

module Json = Bistpath_util.Json
module Store = Bistpath_cache.Store
module Stage = Bistpath_core.Stage
module B = Bistpath_benchmarks.Benchmarks
module Telemetry = Bistpath_telemetry.Telemetry
module Inject = Bistpath_resilience.Inject
module Budget = Bistpath_resilience.Budget
module Journal = Bistpath_service.Journal
module Job = Bistpath_service.Job
module Runner = Bistpath_service.Runner
module Service = Bistpath_service.Service

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* --- scratch-dir helpers ------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmpdir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "bistpath-test-cache-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The sharded entry layout documented in Store's interface; tests that
   corrupt or re-date entries reach through it on purpose. *)
let entry_path dir key =
  Filename.concat
    (Filename.concat (Filename.concat dir "objects")
       (String.sub key 0 2))
    (String.sub key 2 (String.length key - 2))

let some_key seed = Digest.to_hex (Digest.string seed)

(* --- canonical JSON ------------------------------------------------- *)

let canonical_sorts_keys () =
  let a = Json.Obj [ ("b", Json.Num 2.0); ("a", Json.Num 1.0) ] in
  let b = Json.Obj [ ("a", Json.Num 1.0); ("b", Json.Num 2.0) ] in
  check Alcotest.string "field order irrelevant" (Json.canonical a)
    (Json.canonical b);
  check Alcotest.string "keys sorted" {|{"a":1,"b":2}|} (Json.canonical a);
  let nested =
    Json.Obj
      [ ("z", Json.Obj [ ("y", Json.Bool true); ("x", Json.Null) ]);
        ("a", Json.Arr [ Json.Num 2.0; Json.Num 1.0 ]);
      ]
  in
  (* arrays keep their order -- only object keys sort *)
  check Alcotest.string "nested objects sorted, arrays preserved"
    {|{"a":[2,1],"z":{"x":null,"y":true}}|}
    (Json.canonical nested)

let stage_keys_distinct () =
  let inputs = Json.Obj [ ("x", Json.Num 1.0) ] in
  let stages = Stage.[ Schedule; Rtl; Report ] in
  let keys = List.map (fun s -> Stage.key s ~inputs) stages in
  let sorted = List.sort_uniq compare keys in
  check Alcotest.int "stage name is hashed into the key" (List.length stages)
    (List.length sorted);
  List.iter
    (fun k -> check Alcotest.int "md5 hex key" 32 (String.length k))
    keys

(* --- the on-disk store ---------------------------------------------- *)

let store_roundtrip () =
  let d = tmpdir () in
  let s = Store.open_ ~dir:(Filename.concat d "cache") () in
  let key = some_key "roundtrip" in
  check Alcotest.(option string) "empty store misses" None
    (Store.find s ~stage:"alloc" ~key);
  Store.put s ~stage:"alloc" ~key "payload bytes\n";
  check Alcotest.(option string) "round-trips" (Some "payload bytes\n")
    (Store.find s ~stage:"alloc" ~key);
  check Alcotest.int "one entry" 1 (Store.stats s).Store.entries;
  (* a stage mismatch reads as a corrupt header: miss, entry dropped *)
  check Alcotest.(option string) "stage is part of the identity" None
    (Store.find s ~stage:"bist" ~key);
  check Alcotest.int "mismatched entry dropped" 0 (Store.stats s).Store.entries;
  Store.put s ~stage:"alloc" ~key "payload bytes\n";
  check Alcotest.int "clear removes it" 1 (Store.clear s);
  check Alcotest.int "empty after clear" 0 (Store.stats s).Store.entries;
  rm_rf d

let store_corrupt_entry () =
  let d = tmpdir () in
  let s = Store.open_ ~dir:(Filename.concat d "cache") () in
  let key = some_key "corrupt" in
  Store.put s ~stage:"bist" ~key "good payload";
  let path = entry_path (Filename.concat d "cache") key in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "bistpath-cache 1 bist damaged");
  let found, r = Telemetry.collect (fun () -> Store.find s ~stage:"bist" ~key) in
  check Alcotest.(option string) "corrupt entry is a miss" None found;
  check Alcotest.int "counted as cache.corrupt" 1 (Telemetry.counter r "cache.corrupt");
  check Alcotest.bool "corrupt file deleted on sight" false (Sys.file_exists path);
  rm_rf d

(* Regression: an entry unlinked between [find]'s header and payload
   reads (a concurrent gc in another process) used to escape as an
   exception. [find] now opens the object exactly once — ENOENT at open
   is an ordinary miss, and an inode already open stays readable after
   any unlink — so a second process deleting and recreating the entry
   at full speed must never produce anything but hits and misses. *)
let store_concurrent_gc_race () =
  let d = tmpdir () in
  let s = Store.open_ ~dir:(Filename.concat d "cache") () in
  let key = some_key "gc-race" in
  let payload = "racy payload" in
  Store.put s ~stage:"alloc" ~key payload;
  let path = entry_path (Filename.concat d "cache") key in
  let rounds = 2000 in
  (* the gc impersonator, in a second process: unlink and atomically
     recreate (rename within the directory) a byte-exact copy of the
     object, flat out. A shell subprocess rather than fork: the test
     runner already has domains alive. *)
  let template = path ^ ".template" in
  Out_channel.with_open_bin template (fun oc ->
      Out_channel.output_string oc (read_file path));
  let script =
    Printf.sprintf
      "i=0; while [ $i -lt %d ]; do rm -f %s; cp %s %s; mv %s %s; i=$((i+1)); \
       done"
      rounds (Filename.quote path) (Filename.quote template)
      (Filename.quote (path ^ ".churn"))
      (Filename.quote (path ^ ".churn"))
      (Filename.quote path)
  in
  let child =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; script |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let outcomes = ref 0 in
  let (), r =
    Telemetry.collect (fun () ->
        for _ = 1 to rounds do
          (match Store.find s ~stage:"alloc" ~key with
          | Some p -> check Alcotest.string "payload never torn" payload p
          | None -> ());
          incr outcomes
        done)
  in
  ignore (Unix.waitpid [] child);
  check Alcotest.int "every read returned (no exception escaped)" rounds
    !outcomes;
  check Alcotest.int "unlink races are misses, not io errors" 0
    (Telemetry.counter r "cache.io_errors");
  rm_rf d

let store_gc_evicts_oldest () =
  let d = tmpdir () in
  let s = Store.open_ ~dir:(Filename.concat d "cache") () in
  let keys = List.map some_key [ "old"; "mid"; "new" ] in
  List.iter (fun k -> Store.put s ~stage:"rtl" ~key:k "xxxx") keys;
  (* stagger mtimes so LRU order is deterministic regardless of clock
     resolution: "old" is least recently used *)
  let now = Unix.time () in
  List.iteri
    (fun i k ->
      let t = now -. (300.0 -. (100.0 *. float_of_int i)) in
      Unix.utimes (entry_path (Filename.concat d "cache") k) t t)
    keys;
  (* [max_bytes] budgets whole entry files (header + payload); the three
     entries are the same size, so 1.5x one entry keeps exactly one *)
  let entry_bytes = (Store.stats s).Store.bytes / 3 in
  let evicted, r =
    Telemetry.collect (fun () -> Store.gc s ~max_bytes:(entry_bytes * 3 / 2))
  in
  check Alcotest.int "two oldest evicted" 2 evicted;
  check Alcotest.int "counted as cache.evicted" 2 (Telemetry.counter r "cache.evicted");
  check Alcotest.(option string) "oldest gone" None
    (Store.find s ~stage:"rtl" ~key:(List.nth keys 0));
  check Alcotest.(option string) "newest survives" (Some "xxxx")
    (Store.find s ~stage:"rtl" ~key:(List.nth keys 2));
  rm_rf d

let store_io_fault_degrades () =
  let d = tmpdir () in
  let s = Store.open_ ~dir:(Filename.concat d "cache") () in
  let key = some_key "faulty" in
  Store.put s ~stage:"alloc" ~key "payload";
  Fun.protect
    ~finally:(fun () -> Inject.configure [])
    (fun () ->
      Inject.configure ~seed:7 [ ("cache.io", 1.0) ];
      let found, r =
        Telemetry.collect (fun () ->
            let miss = Store.find s ~stage:"alloc" ~key in
            Store.put s ~stage:"alloc" ~key:(some_key "other") "never lands";
            miss)
      in
      check Alcotest.(option string) "injected I/O fault reads as a miss" None
        found;
      check Alcotest.bool "faults counted" true
        (Telemetry.counter r "cache.io_errors" >= 2));
  check Alcotest.(option string) "entry intact once faults stop"
    (Some "payload")
    (Store.find s ~stage:"alloc" ~key);
  check Alcotest.(option string) "faulted put never landed" None
    (Store.find s ~stage:"alloc" ~key:(some_key "other"));
  rm_rf d

(* --- terminal artifacts through Runner.execute ----------------------- *)

let job ?(flow = "testable") spec pipeline =
  match
    Job.parse_line ~default_id:"t"
      (Printf.sprintf {|{"spec":"%s","pipeline":"%s","flow":"%s"}|} spec pipeline flow)
  with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let execute ?cache j =
  match Runner.execute ?cache ~budget:Budget.unlimited j with
  | Ok result -> result
  | Error _ -> Alcotest.failf "%s %s failed" (Job.pipeline_name j.Job.pipeline) j.Job.spec

let how = function Some `Hit -> "hit" | Some `Miss -> "miss" | None -> "none"

(* ex1's run and rtl artifacts under the keys earlier builds
   stored them at: a store those builds wrote is still served warm, and
   a cold job stores its artifact at exactly that key. *)
let pinned_terminal_keys =
  [
    ("run", "traditional", "report", "7e4f221c7f7baebd6813bff5c047aa3b");
    ("run", "testable", "report", "9a234784e36be3860fa918a7a35ac0bb");
    ("rtl", "traditional", "rtl", "9f1ebef0f2080f56dfd3d62f17c79c2b");
    ("rtl", "testable", "rtl", "0ee7ee79c6e2b43f70069412daeb6aa1");
  ]

let terminal_keys_pinned () =
  let d = tmpdir () in
  let cache = Store.open_ ~dir:(Filename.concat d "cache") () in
  List.iter
    (fun (pipeline, flow, stage, key) ->
      let j = job ~flow "ex1" pipeline in
      let label = Printf.sprintf "ex1 %s %s" pipeline flow in
      Store.put cache ~stage ~key "served from the pinned key\n";
      let out, h = execute ~cache j in
      check Alcotest.string (label ^ ": warm from the pinned key")
        "hit served from the pinned key\n" (how h ^ " " ^ out);
      ignore (Store.clear cache);
      let out, h = execute ~cache j in
      check Alcotest.string (label ^ ": cold miss") "miss" (how h);
      check Alcotest.(option string) (label ^ ": stored at the pinned key") (Some out)
        (Store.find cache ~stage ~key);
      check Alcotest.int (label ^ ": one entry per artifact") 1
        (Store.stats cache).Store.entries;
      ignore (Store.clear cache))
    pinned_terminal_keys;
  rm_rf d

(* check, verify and coverage run the flow: a cold cached job neither
   stores nor counts anything and prints the uncached bytes. *)
let uncached_pipelines_store_nothing () =
  let d = tmpdir () in
  let cache = Store.open_ ~dir:(Filename.concat d "cache") () in
  List.iter
    (fun pipeline ->
      let j = job "ex1" pipeline in
      let plain, _ = execute j in
      let (out, h), r = Telemetry.collect (fun () -> execute ~cache j) in
      check Alcotest.string (pipeline ^ ": uncached bytes") plain out;
      check Alcotest.string (pipeline ^ ": not a cached artifact") "none" (how h);
      check Alcotest.int (pipeline ^ ": no lookup") 0
        (Telemetry.counter r "cache.miss" + Telemetry.counter r "cache.hit"))
    [ "check"; "verify"; "coverage" ];
  check Alcotest.int "no entry stored" 0 (Store.stats cache).Store.entries;
  rm_rf d

(* fir16's BIST search stops at the allocator's node cap without
   tripping the budget: its artifact is not the exact one the key names,
   so a cold job stores nothing and the next is a miss again. *)
let capped_search_stores_nothing () =
  let d = tmpdir () in
  let cache = Store.open_ ~dir:(Filename.concat d "cache") () in
  let j = job "fir16" "run" in
  let plain, _ = execute j in
  check Alcotest.bool "the search is capped" true
    (contains ~sub:"(search truncated)" plain);
  List.iter
    (fun label ->
      let out, h = execute ~cache j in
      check Alcotest.string (label ^ ": uncached bytes") plain out;
      check Alcotest.string (label ^ ": a miss") "miss" (how h);
      check Alcotest.int (label ^ ": no entry stored") 0 (Store.stats cache).Store.entries)
    [ "cold"; "second" ];
  rm_rf d

let cached_jobs spec = List.map (job spec) [ "run"; "rtl"; "pareto" ]

let flow_corrupt_entries_degrade_to_miss () =
  let d = tmpdir () in
  let dir = Filename.concat d "cache" in
  let cache = Store.open_ ~dir () in
  let jobs = cached_jobs "Tseng1" in
  let cold = List.map (fun j -> fst (execute ~cache j)) jobs in
  (* trash every stored object: each lookup must degrade to a clean
     re-render, never an exception or a wrong answer *)
  let objects = Filename.concat dir "objects" in
  Array.iter
    (fun shard ->
      let sd = Filename.concat objects shard in
      Array.iter
        (fun f ->
          Out_channel.with_open_bin (Filename.concat sd f) (fun oc ->
              Out_channel.output_string oc "not a cache entry"))
        (Sys.readdir sd))
    (Sys.readdir objects);
  let warm, r = Telemetry.collect (fun () -> List.map (execute ~cache) jobs) in
  check Alcotest.int "corruption counted" 3 (Telemetry.counter r "cache.corrupt");
  check Alcotest.int "every artifact re-rendered" 3 (Telemetry.counter r "cache.miss");
  List.iter2
    (fun c (w, h) ->
      check Alcotest.string "same bytes as the cold job" c w;
      check Alcotest.string "a miss" "miss" (how h))
    cold warm;
  let again = List.map (fun j -> how (snd (execute ~cache j))) jobs in
  check Alcotest.(list string) "re-stored: all hits" [ "hit"; "hit"; "hit" ] again;
  rm_rf d

let flow_io_faults_degrade_to_miss () =
  let d = tmpdir () in
  let cache = Store.open_ ~dir:(Filename.concat d "cache") () in
  let jobs = cached_jobs "ex1" in
  let uncached = List.map (fun j -> fst (execute j)) jobs in
  let cold = List.map (fun j -> fst (execute ~cache j)) jobs in
  check Alcotest.(list string) "cold jobs agree with uncached" uncached cold;
  Fun.protect
    ~finally:(fun () -> Inject.configure [])
    (fun () ->
      Inject.configure ~seed:11 [ ("cache.io", 1.0) ];
      let faulted, r =
        Telemetry.collect (fun () -> List.map (fun j -> fst (execute ~cache j)) jobs)
      in
      check Alcotest.bool "I/O faults counted" true
        (Telemetry.counter r "cache.io_errors" > 0);
      check Alcotest.int "no hits under total I/O failure" 0
        (Telemetry.counter r "cache.hit");
      check Alcotest.(list string) "same bytes as uncached" uncached faulted);
  rm_rf d

(* --- CLI: warm runs are full hits and byte-identical ---------------- *)

let synth_exe =
  Filename.concat Filename.parent_dir_name (Filename.concat "bin" "synth.exe")

let run_synth args =
  let d = tmpdir () in
  let out_f = Filename.concat d "stdout" and err_f = Filename.concat d "stderr" in
  let openf f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = openf out_f and err = openf err_f in
  let pid =
    Unix.create_process synth_exe
      (Array.of_list (synth_exe :: args))
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  let so = read_file out_f and se = read_file err_f in
  rm_rf d;
  (code, so, se)

let data_dfgs () =
  let dir = Filename.concat Filename.parent_dir_name "data" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dfg")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* The tentpole acceptance check, over every shipped design and both
   artifact pipelines: a second run against a warm cache prints exactly
   the same bytes, touches no miss counter, and only serves hits. *)
let cli_warm_runs_byte_identical () =
  let specs = data_dfgs () in
  check Alcotest.bool "data/*.dfg present" true (List.length specs >= 5);
  List.iter
    (fun pipeline ->
      let cache_dir = Filename.concat (tmpdir ()) "cache" in
      List.iter
        (fun spec ->
          let base = [ pipeline; spec; "--cache"; "--cache-dir"; cache_dir ] in
          let tag = Printf.sprintf "%s %s" pipeline (Filename.basename spec) in
          let c0, cold, _ = run_synth base in
          check Alcotest.int (tag ^ ": cold exit") 0 c0;
          let c1, warm, stats = run_synth (base @ [ "--stats" ]) in
          check Alcotest.int (tag ^ ": warm exit") 0 c1;
          check Alcotest.string (tag ^ ": byte-identical") cold warm;
          check Alcotest.bool (tag ^ ": warm run hits") true
            (contains ~sub:"cache.hit" stats);
          check Alcotest.bool (tag ^ ": warm run never misses") false
            (contains ~sub:"cache.miss" stats))
        specs;
      rm_rf (Filename.dirname cache_dir))
    [ "run"; "rtl" ]

let cli_uncached_parity () =
  (* with no cache flags the CLI must print the same bytes it always
     has -- the cached cold run serves as the reference *)
  let spec = Filename.concat (Filename.concat ".." "data") "ex1.dfg" in
  let cache_dir = Filename.concat (tmpdir ()) "cache" in
  let c0, plain, _ = run_synth [ "run"; spec ] in
  let c1, cached, _ =
    run_synth [ "run"; spec; "--cache"; "--cache-dir"; cache_dir ]
  in
  check Alcotest.int "plain exit" 0 c0;
  check Alcotest.int "cached exit" 0 c1;
  check Alcotest.string "cache does not change the output" plain cached;
  rm_rf (Filename.dirname cache_dir)

let cli_cache_admin () =
  let cache_dir = Filename.concat (tmpdir ()) "cache" in
  let spec = Filename.concat (Filename.concat ".." "data") "ex1.dfg" in
  let run_ok args =
    let c, out, _ = run_synth args in
    check Alcotest.int (String.concat " " args ^ ": exit") 0 c;
    out
  in
  ignore (run_ok [ "run"; spec; "--cache"; "--cache-dir"; cache_dir ]);
  let stats = run_ok [ "cache"; "stats"; "--cache-dir"; cache_dir ] in
  check Alcotest.bool "stats names the directory" true
    (contains ~sub:cache_dir stats);
  check Alcotest.bool "stats counts entries" true (contains ~sub:"entries" stats);
  let gc = run_ok [ "cache"; "gc"; "--cache-dir"; cache_dir; "--cache-max-mb"; "1" ] in
  check Alcotest.bool "gc reports evictions" true (contains ~sub:"evicted" gc);
  let cleared = run_ok [ "cache"; "clear"; "--cache-dir"; cache_dir ] in
  check Alcotest.bool "clear reports removals" true (contains ~sub:"removed" cleared);
  (* a cleared cache still produces a correct (cold) run *)
  ignore (run_ok [ "run"; spec; "--cache"; "--cache-dir"; cache_dir ]);
  rm_rf (Filename.dirname cache_dir)

(* --- service mode ---------------------------------------------------- *)

let quiet_config ?(resume = false) dir =
  {
    (Service.default_config (Service.Spool_dir dir)) with
    Service.resume;
    retry_base_ms = 1.0;
    breaker_cooldown_s = 0.01;
    verbose = false;
  }

let serve_splits_cached_latency () =
  let d = tmpdir () in
  write_lines
    (Filename.concat d "jobs.ndjson")
    [
      {|{"id":"j1","spec":"ex1","pipeline":"run"}|};
      {|{"id":"j2","spec":"ex1","pipeline":"run"}|};
    ];
  let cfg =
    { (quiet_config d) with Service.cache_dir = Some (Filename.concat d "cache") }
  in
  let stats, r = Telemetry.collect (fun () -> Service.run cfg) in
  check Alcotest.int "both jobs completed" 2 stats.Service.completed;
  check Alcotest.int "one artifact-level hit" 1 (Telemetry.counter r "cache.hit.report");
  let prom = Telemetry.prometheus_text r in
  check Alcotest.bool "uncached latency histogram exported" true
    (contains ~sub:"bistpath_service_job_ns" prom);
  check Alcotest.bool "cache-served latency histogram exported" true
    (contains ~sub:"bistpath_service_job_ns_cached" prom);
  let out id = read_file (Filename.concat (Filename.concat d "results") (id ^ ".out")) in
  check Alcotest.string "cache-served artifact byte-identical" (out "j1") (out "j2");
  let journal = read_file (Filename.concat d "journal.ndjson") in
  check Alcotest.bool "journal records the hit" true
    (contains ~sub:{|"cache":"hit"|} journal);
  check Alcotest.bool "journal records the miss" true
    (contains ~sub:{|"cache":"miss"|} journal);
  rm_rf d

let journal_tolerates_pre_cache_lines () =
  (* journals written before the cache existed have no "cache" field;
     they must replay as [cache = None], not as parse errors *)
  let d = tmpdir () in
  let path = Filename.concat d "journal.ndjson" in
  write_lines path [ {|{"ev":"done","id":"j1","attempt":1,"status":"ok"}|} ];
  (match Journal.replay_merged path with
  | [ Journal.Done { id; cache; _ } ] ->
    check Alcotest.string "id" "j1" id;
    check Alcotest.(option string) "absent cache field replays as None" None cache
  | _ -> Alcotest.fail "expected one done event");
  rm_rf d

(* --- one pipeline behind the CLI and serve ---------------------------- *)

let both_flows = [ "traditional"; "testable" ]

(* The CLI spelling of each serve pipeline; [export] takes no flow. *)
let cli_args pipeline tag flow =
  match pipeline with
  | "rtl" -> [ "rtl"; tag; "--bist"; "--flow"; flow ]
  | "check" -> [ "check"; tag; "--format"; "json"; "--flow"; flow ]
  | "export" -> [ "export"; tag ]
  | p -> [ p; tag; "--flow"; flow ]

let job_id tag flow pipeline = Printf.sprintf "%s-%s-%s" tag flow pipeline

(* Spool the (tag, flow, pipeline) jobs into [d] and serve them in
   process; returns each job's [<id>.out]. *)
let serve_jobs ?cache_dir d triples =
  write_lines
    (Filename.concat d "jobs.ndjson")
    (List.map
       (fun (tag, flow, pipeline) ->
         Printf.sprintf {|{"id":"%s","spec":"%s","pipeline":"%s","flow":"%s"}|}
           (job_id tag flow pipeline) tag pipeline flow)
       triples);
  let stats = Service.run { (quiet_config d) with Service.cache_dir } in
  check Alcotest.int "every job completed" (List.length triples)
    stats.Service.completed;
  fun (tag, flow, pipeline) ->
    read_file
      (Filename.concat (Filename.concat d "results")
         (job_id tag flow pipeline ^ ".out"))

let cli_stdout args =
  let code, out, err = run_synth args in
  check Alcotest.int (String.concat " " args ^ ": exit") 0 code;
  (out, err)

let triples pipelines =
  List.concat_map
    (fun tag ->
      List.concat_map
        (fun flow -> List.map (fun p -> (tag, flow, p)) pipelines)
        both_flows)
    B.all_tags

(* Every benchmark tag in both flows: the CLI prints exactly the bytes
   one in-process serve run commits as <id>.out. *)
let cli_matches_serve_artifacts () =
  let d = tmpdir () in
  let jobs =
    triples [ "run"; "pareto"; "coverage"; "export"; "rtl"; "check" ]
  in
  let served = serve_jobs d jobs in
  List.iter
    (fun ((tag, flow, pipeline) as t) ->
      let out, _ = cli_stdout (cli_args pipeline tag flow) in
      check Alcotest.string (job_id tag flow pipeline) (served t) out)
    jobs;
  rm_rf d

let done_cache d =
  let events = Journal.replay_merged (Filename.concat d "journal.ndjson") in
  fun id ->
    List.find_map
      (function
        | Journal.Done { id = i; cache; _ } when i = id -> Some cache
        | _ -> None)
      events

(* Terminal run/rtl artifacts share one cache: entries the CLI stored
   are hits for serve, and entries serve stored are hits for the CLI,
   with the same bytes either way. *)
let cli_and_serve_share_one_cache () =
  let jobs = triples [ "run"; "rtl" ] in
  let cache_args d = [ "--cache"; "--cache-dir"; Filename.concat d "cache" ] in
  let cli_warmed = tmpdir () in
  let cli_out =
    List.map
      (fun (tag, flow, pipeline) ->
        fst (cli_stdout (cli_args pipeline tag flow @ cache_args cli_warmed)))
      jobs
  in
  let served =
    serve_jobs ~cache_dir:(Filename.concat cli_warmed "cache") cli_warmed jobs
  in
  let cached = done_cache cli_warmed in
  List.iter2
    (fun ((tag, flow, pipeline) as t) out ->
      let id = job_id tag flow pipeline in
      check Alcotest.(option (option string)) (id ^ ": serve hit")
        (Some (Some "hit")) (cached id);
      check Alcotest.string (id ^ ": same bytes") out (served t))
    jobs cli_out;
  let serve_warmed = tmpdir () in
  let served =
    serve_jobs ~cache_dir:(Filename.concat serve_warmed "cache") serve_warmed jobs
  in
  List.iter
    (fun ((tag, flow, pipeline) as t) ->
      let id = job_id tag flow pipeline in
      let out, stats =
        cli_stdout
          (cli_args pipeline tag flow @ cache_args serve_warmed @ [ "--stats" ])
      in
      check Alcotest.bool (id ^ ": CLI hit") true (contains ~sub:"cache.hit" stats);
      check Alcotest.bool (id ^ ": CLI never misses") false
        (contains ~sub:"cache.miss" stats);
      check Alcotest.string (id ^ ": same bytes") (served t) out)
    jobs;
  rm_rf cli_warmed;
  rm_rf serve_warmed

(* A negative --vectors is the same invalid-input error (exit 4) on both
   commands that take it, before any flow runs. *)
let cli_negative_vectors_rejected () =
  List.iter
    (fun cmd ->
      let code, out, err = run_synth [ cmd; "ex1"; "--vectors=-3" ] in
      check Alcotest.int (cmd ^ ": exit 4") 4 code;
      check Alcotest.string (cmd ^ ": no report") "" out;
      check Alcotest.string (cmd ^ ": message")
        "synth: error: --vectors: expected a non-negative integer, got \"-3\"\n" err)
    [ "check"; "verify" ]

(* Golden mode compares structure and never simulates, so --vectors is
   a flag it would ignore: rejected like --bist without --rtl. *)
let cli_golden_rejects_vectors () =
  let golden = Filename.concat Filename.parent_dir_name "golden" in
  let code, out, err = run_synth [ "verify"; "ex1"; "--golden"; golden; "--vectors"; "0" ] in
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.string "no report" "" out;
  check Alcotest.string "message"
    "synth: --vectors and --golden are exclusive: --golden never simulates\n" err

let suite =
  [
    case "canonical JSON sorts object keys at every depth" canonical_sorts_keys;
    case "stage keys are distinct 32-hex digests" stage_keys_distinct;
    case "store: put/find round-trip, stage identity, clear" store_roundtrip;
    case "store: corrupt entry is a counted miss and is deleted" store_corrupt_entry;
    case "store: concurrent delete/recreate is only ever a miss"
      store_concurrent_gc_race;
    case "store: gc evicts oldest-mtime entries first" store_gc_evicts_oldest;
    case "store: injected cache.io faults degrade to misses" store_io_fault_degrades;
    case "runner: ex1's run and rtl keys are pinned" terminal_keys_pinned;
    case "runner: cold cached check, verify and coverage store nothing"
      uncached_pipelines_store_nothing;
    case "runner: a search cut at the node cap stores nothing" capped_search_stores_nothing;
    case "flow: corrupt entries degrade to clean recomputes"
      flow_corrupt_entries_degrade_to_miss;
    case "flow: cache.io faults leave results byte-equal to uncached"
      flow_io_faults_degrade_to_miss;
    case "cli: warm run/rtl over every data/*.dfg is a byte-identical hit"
      cli_warm_runs_byte_identical;
    case "cli: uncached output unchanged by caching" cli_uncached_parity;
    case "cli: cache stats/gc/clear administer the store" cli_cache_admin;
    case "serve: cache-served jobs split into their own histogram"
      serve_splits_cached_latency;
    case "journal: pre-cache done lines replay with cache=None"
      journal_tolerates_pre_cache_lines;
    case "cli: every tag's stdout equals serve's artifact" cli_matches_serve_artifacts;
    case "cli: CLI and serve warm one shared cache" cli_and_serve_share_one_cache;
    case "cli: check and verify reject a negative --vectors alike"
      cli_negative_vectors_rejected;
    case "cli: verify --golden rejects --vectors" cli_golden_rejects_vectors;
  ]
