(* Supervised service mode: spec parsing, the write-ahead journal, the
   circuit breaker, crash-isolated execution with retries, and the
   crash-safety story itself — a SIGKILLed server resumed from its
   journal must produce byte-identical results, exactly once. *)

module Json = Bistpath_util.Json
module Atomic_io = Bistpath_util.Atomic_io
module Job = Bistpath_service.Job
module Journal = Bistpath_service.Journal
module Breaker = Bistpath_service.Breaker
module Transition = Bistpath_service.Transition
module Service = Bistpath_service.Service
module Inject = Bistpath_resilience.Inject

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
        (Printf.sprintf "bistpath-test-serve-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let make_spool lines =
  let d = tmpdir () in
  write_lines (Filename.concat d "jobs.ndjson") lines;
  d

let quiet_config ?(resume = false) dir =
  {
    (Service.default_config (Service.Spool_dir dir)) with
    Service.resume;
    retry_base_ms = 1.0;
    breaker_cooldown_s = 0.01;
    verbose = false;
  }

let raises_sys_error f =
  match f () with () -> false | exception Sys_error _ -> true

(* --- Json ----------------------------------------------------------- *)

let json_roundtrip () =
  let src = {|{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5,"e":1e3}}|} in
  match Json.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v -> (
    check Alcotest.string "compact print"
      {|{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5,"e":1000}}|}
      (Json.to_string v);
    match Json.parse (Json.to_string v) with
    | Error e -> Alcotest.failf "reparse: %s" e
    | Ok v' -> check Alcotest.bool "fixpoint" true (v = v'))

let json_unicode () =
  match Json.parse {|"Aé 😀"|} with
  | Ok (Json.Str s) -> check Alcotest.string "utf8 decode" "A\xc3\xa9 \xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "expected a string"

let json_errors () =
  let bad s = match Json.parse s with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "trailing garbage" true (bad "1 x");
  check Alcotest.bool "unterminated string" true (bad {|"abc|});
  check Alcotest.bool "bare word" true (bad "flase");
  check Alcotest.bool "unclosed object" true (bad {|{"a":1|})

let json_accessors () =
  let v = Json.Obj [ ("n", Json.Num 3.0); ("h", Json.Num 3.5) ] in
  check Alcotest.(option int) "integral" (Some 3)
    (Option.bind (Json.member "n" v) Json.to_int);
  check Alcotest.(option int) "non-integral" None
    (Option.bind (Json.member "h" v) Json.to_int);
  check Alcotest.(option int) "missing member" None
    (Option.bind (Json.member "zz" v) Json.to_int);
  check Alcotest.string "integral prints bare" "3" (Json.to_string (Json.Num 3.0))

(* --- Atomic_io ------------------------------------------------------ *)

let atomic_write_roundtrip () =
  let d = tmpdir () in
  let f = Filename.concat d "a.txt" in
  Atomic_io.write_file f "one\n";
  check Alcotest.string "first write" "one\n" (read_file f);
  Atomic_io.write_file f "two\n";
  check Alcotest.string "overwrite" "two\n" (read_file f);
  check Alcotest.int "no stray tmp files" 1 (Array.length (Sys.readdir d));
  rm_rf d

let atomic_write_failure () =
  let missing = Filename.concat (tmpdir ()) "no-such-subdir" in
  check Alcotest.bool "missing dir raises Sys_error" true
    (raises_sys_error (fun () ->
         Atomic_io.write_file (Filename.concat missing "f") "x"))

(* --- Job specs ------------------------------------------------------ *)

let job_defaults () =
  match Job.parse_line ~default_id:"d1" {|{"spec":"ex1"}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j ->
    check Alcotest.string "default id" "d1" j.Job.id;
    check Alcotest.string "class" "run" (Job.class_of j);
    check Alcotest.int "default width" 8 j.Job.width;
    check Alcotest.string "default flow" "testable" j.Job.flow;
    check Alcotest.int "default patterns" 255 j.Job.patterns

let job_rejections () =
  let bad line =
    match Job.parse_line ~default_id:"d" line with Error _ -> true | Ok _ -> false
  in
  check Alcotest.bool "unknown field" true (bad {|{"spec":"ex1","ev":"x"}|});
  check Alcotest.bool "missing spec" true (bad {|{"id":"a"}|});
  check Alcotest.bool "id with slash" true (bad {|{"id":"a/b","spec":"ex1"}|});
  check Alcotest.bool "bad pipeline" true (bad {|{"spec":"ex1","pipeline":"zap"}|});
  check Alcotest.bool "zero width" true (bad {|{"spec":"ex1","width":0}|});
  check Alcotest.bool "negative timeout" true (bad {|{"spec":"ex1","timeout":-1}|});
  check Alcotest.bool "not an object" true (bad {|[1,2]|})

let job_json_roundtrip () =
  let line =
    {|{"id":"j1","spec":"Paulin","pipeline":"coverage","width":4,|}
    ^ {|"flow":"traditional","transparency":true,"patterns":63,|}
    ^ {|"timeout":2.5,"leaf_budget":100}|}
  in
  match Job.parse_line ~default_id:"d" line with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j -> (
    match Job.of_json ~default_id:"d" (Job.to_json j) with
    | Error e -> Alcotest.failf "reparse: %s" e
    | Ok j' -> check Alcotest.bool "of_json (to_json j) = j" true (j = j'))

(* --- Journal -------------------------------------------------------- *)

let sample_job () =
  match Job.parse_line ~default_id:"j1" {|{"id":"j1","spec":"ex1"}|} with
  | Ok j -> j
  | Error e -> Alcotest.failf "sample job: %s" e

let journal_roundtrip () =
  let d = tmpdir () in
  let path = Filename.concat d "j.ndjson" in
  let events =
    [
      Journal.Accept (sample_job ());
      Journal.Start { id = "j1"; attempt = 1 };
      Journal.Fail { id = "j1"; attempt = 1; error = "boom \"quoted\"" };
      Journal.Start { id = "j1"; attempt = 2 };
      Journal.Done
        { id = "j1"; attempt = 2; status = "degraded"; reason = Some "deadline";
          cache = Some "miss" };
      Journal.Give_up { id = "j2"; error = "bad spec" };
      Journal.Interrupted { id = "j3"; attempt = 1 };
      Journal.Drain;
    ]
  in
  let j = Journal.open_ path in
  List.iter (Journal.append j) events;
  Journal.close j;
  check Alcotest.bool "replay gives back what was appended" true
    (Journal.replay_merged path = events);
  rm_rf d

let journal_torn_tail () =
  let d = tmpdir () in
  let path = Filename.concat d "j.ndjson" in
  let j = Journal.open_ path in
  Journal.append j (Journal.Accept (sample_job ()));
  Journal.append j (Journal.Start { id = "j1"; attempt = 1 });
  Journal.close j;
  (* simulate a crash mid-append: a torn, unterminated final record *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"ev":"done","id":"j1","att|};
  close_out oc;
  check Alcotest.int "torn final line ignored" 2 (List.length (Journal.replay_merged path));
  rm_rf d

let journal_torn_tail_repaired_on_reopen () =
  let d = tmpdir () in
  let path = Filename.concat d "j.ndjson" in
  let j = Journal.open_ path in
  Journal.append j (Journal.Accept (sample_job ()));
  Journal.close j;
  (* crash mid-append: torn, unterminated, unparsable final record *)
  let append_raw s =
    let oc = open_out_gen [ Open_append ] 0o644 path in
    output_string oc s;
    close_out oc
  in
  append_raw {|{"ev":"done","id":"j1","att|};
  (* reopening repairs the tail, so the next append cannot weld onto
     the torn line and poison every later replay *)
  let j = Journal.open_ path in
  Journal.append j (Journal.Start { id = "j1"; attempt = 1 });
  Journal.append j
    (Journal.Done { id = "j1"; attempt = 1; status = "ok"; reason = None; cache = None });
  Journal.close j;
  let events = Journal.replay_merged path in
  check Alcotest.int "torn bytes dropped, new records readable" 3
    (List.length events);
  (match Journal.fold_state events with
  | [ st ] -> check Alcotest.bool "terminal after repair" true st.Journal.terminal
  | l -> Alcotest.failf "expected one job state, got %d" (List.length l));
  (* a parsable-but-unterminated final record is kept, not truncated *)
  append_raw {|{"ev":"drain"}|};
  let j = Journal.open_ path in
  Journal.append j (Journal.Give_up { id = "j2"; error = "x" });
  Journal.close j;
  check Alcotest.int "parsable tail terminated and kept" 5
    (List.length (Journal.replay_merged path));
  rm_rf d

let journal_corruption_raises () =
  let d = tmpdir () in
  let path = Filename.concat d "j.ndjson" in
  write_lines path
    [ {|{"ev":"drain"}|}; "GARBAGE"; {|{"ev":"start","id":"j1","attempt":1}|} ];
  check Alcotest.bool "mid-file corruption raises" true
    (raises_sys_error (fun () -> ignore (Journal.replay_merged path)));
  rm_rf d

let journal_fold_state () =
  let events =
    [
      Journal.Accept (sample_job ());
      Journal.Start { id = "j1"; attempt = 1 };
      Journal.Fail { id = "j1"; attempt = 1; error = "x" };
      Journal.Start { id = "j1"; attempt = 2 };
    ]
  in
  (match Journal.fold_state events with
  | [ st ] ->
    check Alcotest.string "job id" "j1" st.Journal.job.Job.id;
    check Alcotest.int "attempts" 2 st.Journal.attempts;
    check Alcotest.bool "non-terminal" false st.Journal.terminal
  | l -> Alcotest.failf "expected one job state, got %d" (List.length l));
  (match
     Journal.fold_state
       (events @ [ Journal.Done
             { id = "j1"; attempt = 2; status = "ok"; reason = None; cache = None } ])
   with
  | [ st ] -> check Alcotest.bool "terminal after done" true st.Journal.terminal
  | l -> Alcotest.failf "expected one job state, got %d" (List.length l));
  (* a drain-interrupted attempt never failed: it is un-counted *)
  match
    Journal.fold_state
      (events
      @ [ Journal.Interrupted { id = "j1"; attempt = 2 }; Journal.Drain ])
  with
  | [ st ] -> check Alcotest.int "interrupted attempt un-counted" 1 st.Journal.attempts
  | l -> Alcotest.failf "expected one job state, got %d" (List.length l)

(* --- Transition: the lifecycle as a pure function -------------------- *)

let policy = { Transition.max_attempts = 3; retry_base_ms = 100.0 }
let at ?(terminal = false) attempts = { Transition.attempts; terminal }

let decision_text = function
  | Transition.Commit None -> "commit ok"
  | Transition.Commit (Some reason) -> "commit degraded: " ^ reason
  | Transition.Retry { error; _ } -> "retry: " ^ error
  | Transition.Give_up { error; attempt_failed } ->
    (* attempt_failed = the fail record is journaled and the breaker fed *)
    Printf.sprintf "give up%s: %s" (if attempt_failed then " (breaker fed)" else "") error
  | Transition.Pending -> "pending"

let transition_table () =
  let rows =
    Transition.
      [
        ("start charges an attempt", at 0, Start, at 1, "pending");
        ("success commits", at 1, Finished (Completed None), at ~terminal:true 1,
         "commit ok");
        ("degraded commits with its reason", at 1,
         Finished (Completed (Some "deadline")), at ~terminal:true 1,
         "commit degraded: deadline");
        ("invalid input gives up at once, breaker not fed", at 1,
         Finished (Invalid "bad design"), at ~terminal:true 1, "give up: bad design");
        ("transient failure below the budget retries", at 2, Finished (Failed "boom"),
         at 2, "retry: boom");
        ("transient failure at the budget gives up", at 3, Finished (Failed "boom"),
         at ~terminal:true 3, "give up (breaker fed): boom");
        ("drain on the last attempt: pending and uncharged", at 3, Interrupted, at 2,
         "pending");
        ("resume with the budget spent gives up", at 3, Resume, at ~terminal:true 3,
         "give up: retry budget exhausted before the previous shutdown");
        ("resume with budget left stays pending", at 2, Resume, at 2, "pending");
        ("worker death on the final attempt gives up", at 3, Worker_died "SIGKILL",
         at ~terminal:true 3, "give up: worker died (SIGKILL) on final attempt 3 of 3");
        ("worker death with budget left requeues", at 1, Worker_died "SIGKILL", at 1,
         "pending");
        ("terminal stays terminal", at ~terminal:true 3, Resume, at ~terminal:true 3,
         "pending");
      ]
  in
  List.iter
    (fun (name, before, event, after, decision) ->
      let state, d = Transition.step policy before event in
      check Alcotest.int (name ^ ": attempts") after.Transition.attempts state.attempts;
      check Alcotest.bool (name ^ ": terminal") after.terminal state.terminal;
      check Alcotest.string (name ^ ": decision") decision (decision_text d))
    rows

let transition_backoff_bounds () =
  let policy = { policy with max_attempts = 10 } in
  let prng = Bistpath_util.Prng.create 7 in
  for n = 1 to 6 do
    let base_ns = 100.0 *. 1e6 *. Float.of_int (1 lsl (n - 1)) in
    List.iter
      (fun u ->
        match
          Transition.step policy ~jitter:(fun () -> u) (at n)
            Transition.(Finished (Failed "x"))
        with
        | _, Transition.Retry { backoff_ns; _ } ->
          let ns = Int64.to_float backoff_ns in
          check Alcotest.bool
            (Printf.sprintf "attempt %d, jitter %.3f: in [0.5, 1.5) x base" n u)
            true
            (ns >= Float.of_int (truncate (0.5 *. base_ns)) && ns < 1.5 *. base_ns)
        | _, d -> Alcotest.failf "attempt %d: expected retry, got %s" n (decision_text d))
      ([ 0.0; 0.5; 1.0 -. epsilon_float ]
      @ List.init 50 (fun _ -> Bistpath_util.Prng.float prng 1.0))
  done

(* --- Breaker -------------------------------------------------------- *)

(* A class's state and the number of open or half-open classes, read
   from the snapshot [--metrics] exports. *)
let state_of b cls = List.assoc cls (Breaker.states b)

let open_count b = List.length (List.filter (fun (_, s) -> s <> "closed") (Breaker.states b))

let breaker_machine () =
  let t = ref 0L in
  let b = Breaker.create ~clock:(fun () -> !t) ~threshold:2 ~cooldown_s:1.0 () in
  let is_allow = function Breaker.Allow -> true | _ -> false in
  let is_probe = function Breaker.Probe -> true | _ -> false in
  let is_reject = function Breaker.Reject _ -> true | _ -> false in
  check Alcotest.bool "starts closed" true (is_allow (Breaker.check b "c"));
  check Alcotest.bool "first failure does not trip" false (Breaker.failure b "c");
  check Alcotest.bool "second failure trips" true (Breaker.failure b "c");
  check Alcotest.string "open" "open" (state_of b "c");
  check Alcotest.bool "rejects while open" true (is_reject (Breaker.check b "c"));
  check Alcotest.int "one class open" 1 (open_count b);
  t := 1_000_000_000L;
  check Alcotest.bool "probe after cooldown" true (is_probe (Breaker.check b "c"));
  check Alcotest.bool "failed probe re-trips" true (Breaker.failure b "c");
  check Alcotest.bool "re-opened rejects" true (is_reject (Breaker.check b "c"));
  t := 2_000_000_000L;
  check Alcotest.bool "second probe" true (is_probe (Breaker.check b "c"));
  Breaker.success b "c";
  check Alcotest.bool "success closes" true (is_allow (Breaker.check b "c"));
  check Alcotest.int "nothing open" 0 (open_count b);
  (* an unrelated class is unaffected throughout *)
  check Alcotest.bool "other class closed" true (is_allow (Breaker.check b "d"))

let breaker_reprobe_without_verdict () =
  let t = ref 0L in
  let b = Breaker.create ~clock:(fun () -> !t) ~threshold:1 ~cooldown_s:1.0 () in
  let is_probe = function Breaker.Probe -> true | _ -> false in
  check Alcotest.bool "trips" true (Breaker.failure b "c");
  t := 1_000_000_000L;
  check Alcotest.bool "probe after cooldown" true (is_probe (Breaker.check b "c"));
  (* the probe's job was retired without reporting success or failure
     (e.g. an invalid-input give-up): the next check must admit a fresh
     probe, not hand back a zero-wait reject that busy-polls — or
     starves the class forever *)
  check Alcotest.bool "fresh probe, not a zero-wait reject" true
    (is_probe (Breaker.check b "c"));
  check Alcotest.string "still half_open" "half_open" (state_of b "c");
  Breaker.success b "c";
  check Alcotest.string "verdict closes it" "closed" (state_of b "c")

(* --- Service: in-process end-to-end -------------------------------- *)

let three_jobs =
  [
    {|{"id":"j1","spec":"ex1","pipeline":"run"}|};
    {|{"id":"j2","spec":"Paulin","pipeline":"rtl"}|};
    {|{"id":"j3","spec":"ex1","pipeline":"export"}|};
  ]

let out_file dir id = Filename.concat (Filename.concat dir "results") (id ^ ".out")

let service_end_to_end () =
  let d = make_spool three_jobs in
  let stats = Service.run (quiet_config d) in
  check Alcotest.int "accepted" 3 stats.Service.accepted;
  check Alcotest.int "completed" 3 stats.Service.completed;
  check Alcotest.int "failed" 0 stats.Service.failed;
  check Alcotest.bool "not drained" false stats.Service.drained;
  List.iter
    (fun id ->
      check Alcotest.bool (id ^ " result exists") true (Sys.file_exists (out_file d id)))
    [ "j1"; "j2"; "j3" ];
  (* results are deterministic: a second fresh run produces the same bytes *)
  let d2 = make_spool three_jobs in
  ignore (Service.run (quiet_config d2));
  List.iter
    (fun id ->
      check Alcotest.string (id ^ " deterministic") (read_file (out_file d id))
        (read_file (out_file d2 id)))
    [ "j1"; "j2"; "j3" ];
  (* a non-empty journal is refused without --resume... *)
  check Alcotest.bool "journal refused without resume" true
    (match Service.run (quiet_config d) with
    | exception Sys_error _ -> true
    | _ -> false);
  (* ...and with resume everything is already terminal: nothing re-runs *)
  let stats' = Service.run (quiet_config ~resume:true d) in
  check Alcotest.int "resume re-accepts nothing" 0 stats'.Service.accepted;
  check Alcotest.int "resume re-runs nothing" 0 stats'.Service.completed;
  rm_rf d;
  rm_rf d2

let service_bad_specs () =
  let d =
    make_spool
      [
        {|{"id":"ok1","spec":"ex1"}|};
        {|{"id":"ok1","spec":"ex1"}|};
        (* duplicate id *)
        {|not json at all|};
        {|{"id":"nosuch","spec":"zzz-not-a-benchmark"}|};
      ]
  in
  let stats = Service.run (quiet_config d) in
  check Alcotest.int "one job accepted+completed" 1 stats.Service.completed;
  check Alcotest.int "duplicate + garbage rejected" 2 stats.Service.rejected_specs;
  (* the unknown benchmark is a deterministic failure: no retries *)
  check Alcotest.int "no retries for invalid input" 0 stats.Service.retries;
  (* rejected specs never became jobs, so they do not count as failed *)
  check Alcotest.int "failed counts only the invalid-input job" 1 stats.Service.failed;
  check Alcotest.bool "error artifact written" true
    (Sys.file_exists (Filename.concat (Filename.concat d "results") "nosuch.err"));
  (* the duplicate rejection must not journal give_up under the
     accepted job's id — that record would mark the legitimate job
     terminal, and a crash before its completion would silently drop
     it on --resume *)
  let give_up_under_accepted_id =
    List.exists
      (function Journal.Give_up { id; _ } -> String.equal id "ok1" | _ -> false)
      (Journal.replay_merged (Filename.concat d "journal.ndjson"))
  in
  check Alcotest.bool "duplicate not journaled under accepted id" false
    give_up_under_accepted_id;
  rm_rf d

let service_drain_and_resume () =
  let d = make_spool three_jobs in
  let ref_dir = make_spool three_jobs in
  ignore (Service.run (quiet_config ref_dir));
  let cfg = { (quiet_config d) with Service.job_delay_ms = 200 } in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        Service.request_drain ())
  in
  let stats = Service.run cfg in
  Domain.join killer;
  check Alcotest.bool "drained" true stats.Service.drained;
  check Alcotest.bool "work left pending" true (stats.Service.pending > 0);
  check Alcotest.bool "some work done before drain" true (stats.Service.completed >= 1);
  (* drain checkpoint is journaled *)
  let has_drain =
    List.exists
      (function Journal.Drain -> true | _ -> false)
      (Journal.replay_merged (Filename.concat d "journal.ndjson"))
  in
  check Alcotest.bool "drain record journaled" true has_drain;
  let stats' = Service.run (quiet_config ~resume:true d) in
  check Alcotest.int "resume finishes the rest" stats.Service.pending
    stats'.Service.completed;
  List.iter
    (fun id ->
      check Alcotest.string
        (id ^ " byte-identical to uninterrupted run")
        (read_file (out_file ref_dir id))
        (read_file (out_file d id)))
    [ "j1"; "j2"; "j3" ];
  rm_rf d;
  rm_rf ref_dir

let drain_does_not_consume_last_attempt () =
  let d = make_spool three_jobs in
  let cfg = { (quiet_config d) with Service.max_attempts = 1; job_delay_ms = 200 } in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        Service.request_drain ())
  in
  let stats = Service.run cfg in
  Domain.join killer;
  check Alcotest.bool "drained with pending work" true
    (stats.Service.drained && stats.Service.pending > 0);
  let has_interrupted =
    List.exists
      (function Journal.Interrupted _ -> true | _ -> false)
      (Journal.replay_merged (Filename.concat d "journal.ndjson"))
  in
  check Alcotest.bool "interrupted attempt journaled" true has_interrupted;
  (* resume under the same 1-attempt budget: the drained attempt never
     failed, so it must not count — every pending job completes instead
     of being declared "retry budget exhausted" *)
  let stats' =
    Service.run { (quiet_config ~resume:true d) with Service.max_attempts = 1 }
  in
  check Alcotest.int "no job falsely exhausted" 0 stats'.Service.failed;
  check Alcotest.int "resume finishes the rest" stats.Service.pending
    stats'.Service.completed;
  rm_rf d

(* --- Service under injected faults ---------------------------------- *)

let with_injection faults f =
  Inject.configure faults;
  Fun.protect ~finally:(fun () -> Inject.configure []) f

let injected_worker_crashes_are_contained () =
  with_injection [ ("service.worker", 1.0) ] @@ fun () ->
  let d = make_spool [ {|{"id":"a","spec":"ex1"}|}; {|{"id":"b","spec":"ex1"}|} ] in
  let stats = Service.run { (quiet_config d) with Service.max_attempts = 2 } in
  check Alcotest.int "every job fails permanently" 2 stats.Service.failed;
  check Alcotest.int "each job retried once" 2 stats.Service.retries;
  check Alcotest.bool "breaker tripped" true (stats.Service.breaker_trips >= 1);
  check Alcotest.bool "error artifacts written" true
    (Sys.file_exists (Filename.concat (Filename.concat d "results") "a.err"));
  rm_rf d

let injected_result_io_is_retried () =
  with_injection [ ("service.result_io", 1.0) ] @@ fun () ->
  let d = make_spool [ {|{"id":"a","spec":"ex1"}|} ] in
  let stats = Service.run { (quiet_config d) with Service.max_attempts = 2 } in
  check Alcotest.int "result write failures are job failures" 1 stats.Service.failed;
  check Alcotest.int "retried before giving up" 1 stats.Service.retries;
  check Alcotest.bool "no committed result" false (Sys.file_exists (out_file d "a"));
  rm_rf d

let injected_journal_faults_degrade_gracefully () =
  with_injection [ ("service.journal", 1.0) ] @@ fun () ->
  let d = make_spool [ {|{"id":"a","spec":"ex1"}|} ] in
  let stats = Service.run (quiet_config d) in
  check Alcotest.int "job still completes" 1 stats.Service.completed;
  check Alcotest.bool "lost appends counted" true (stats.Service.journal_errors > 0);
  check Alcotest.bool "result still committed" true (Sys.file_exists (out_file d "a"));
  rm_rf d

let injection_is_deterministic () =
  let run_once () =
    Inject.configure ~seed:42 [ ("service.worker", 0.5) ];
    let d = make_spool three_jobs in
    let s = Service.run (quiet_config d) in
    rm_rf d;
    (s.Service.completed, s.Service.failed, s.Service.retries)
  in
  let a = run_once () in
  let b = run_once () in
  Inject.configure [];
  check
    Alcotest.(triple int int int)
    "same seed, same fault schedule, same stats" a b

(* --- the real binary: SIGKILL, SIGTERM, stdin, flag validation ------ *)

let synth_exe = Filename.concat Filename.parent_dir_name (Filename.concat "bin" "synth.exe")

let devnull () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

let spawn_synth args =
  let out = devnull () in
  let pid =
    Unix.create_process synth_exe
      (Array.of_list (synth_exe :: args))
      Unix.stdin out out
  in
  Unix.close out;
  pid

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> `Exited c
  | Unix.WSIGNALED s -> `Signaled s
  | Unix.WSTOPPED _ -> `Stopped

let run_synth args =
  match wait_exit (spawn_synth args) with
  | `Exited c -> c
  | `Signaled _ | `Stopped -> -1

(* Poll the journal until job [id]'s first [start] record lands, i.e.
   the server is inside that job's --job-delay-ms window. *)
let wait_for_start ~journal id =
  let needle = Printf.sprintf {|"ev":"start","id":"%s"|} id in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let seen =
      Sys.file_exists journal
      &&
      let s = read_file journal in
      let nl = String.length needle and sl = String.length s in
      let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
      scan 0
    in
    if seen then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let sigkill_resume_exactly_once () =
  let d = make_spool three_jobs in
  let ref_dir = make_spool three_jobs in
  check Alcotest.int "reference run exits 0" 0 (run_synth [ "serve"; ref_dir; "--quiet" ]);
  let journal = Filename.concat d "journal.ndjson" in
  let pid = spawn_synth [ "serve"; d; "--job-delay-ms"; "400"; "--quiet" ] in
  let started = wait_for_start ~journal "j2" in
  if not started then Unix.kill pid Sys.sigkill;
  check Alcotest.bool "second job started" true started;
  Unix.kill pid Sys.sigkill;
  check Alcotest.bool "killed hard" true (wait_exit pid = `Signaled Sys.sigkill);
  check Alcotest.int "resume exits 0" 0 (run_synth [ "serve"; d; "--resume"; "--quiet" ]);
  List.iter
    (fun id ->
      check Alcotest.string
        (id ^ " byte-identical after crash+resume")
        (read_file (out_file ref_dir id))
        (read_file (out_file d id)))
    [ "j1"; "j2"; "j3" ];
  (* exactly once: one [done] record per job across both runs *)
  List.iter
    (fun id ->
      let dones =
        List.length
          (List.filter
             (function Journal.Done { id = i; _ } -> String.equal i id | _ -> false)
             (Journal.replay_merged journal))
      in
      check Alcotest.int (id ^ " committed exactly once") 1 dones)
    [ "j1"; "j2"; "j3" ];
  rm_rf d;
  rm_rf ref_dir

let sigterm_drains_gracefully () =
  let d = make_spool three_jobs in
  let journal = Filename.concat d "journal.ndjson" in
  let pid = spawn_synth [ "serve"; d; "--job-delay-ms"; "400"; "--quiet" ] in
  let started = wait_for_start ~journal "j2" in
  if not started then Unix.kill pid Sys.sigkill;
  check Alcotest.bool "second job started" true started;
  Unix.kill pid Sys.sigterm;
  check Alcotest.bool "degraded exit after drain" true (wait_exit pid = `Exited 3);
  check Alcotest.int "resume exits 0" 0 (run_synth [ "serve"; d; "--resume"; "--quiet" ]);
  List.iter
    (fun id ->
      check Alcotest.bool (id ^ " present after resume") true
        (Sys.file_exists (out_file d id)))
    [ "j1"; "j2"; "j3" ];
  rm_rf d

let serve_from_stdin () =
  let d = tmpdir () in
  let specs = Filename.concat d "specs.ndjson" in
  write_lines specs [ {|{"id":"s1","spec":"ex1"}|} ];
  let input = Unix.openfile specs [ Unix.O_RDONLY ] 0 in
  let out = devnull () in
  let pid =
    Unix.create_process synth_exe
      [| synth_exe; "serve"; "-";
         "--out"; Filename.concat d "results";
         "--journal"; Filename.concat d "journal.ndjson";
         "--quiet" |]
      input out out
  in
  Unix.close input;
  Unix.close out;
  check Alcotest.bool "stdin mode exits 0" true (wait_exit pid = `Exited 0);
  check Alcotest.bool "result written" true (Sys.file_exists (out_file d "s1"));
  rm_rf d

(* --- observability: --metrics snapshots and per-job traces --------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* First "name <int>" sample after the metric's TYPE line. *)
let metric_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if
           String.length line > String.length name + 1
           && String.sub line 0 (String.length name) = name
           && line.[String.length name] = ' '
         then
           int_of_string_opt
             (String.sub line
                (String.length name + 1)
                (String.length line - String.length name - 1))
         else None)

let metrics_snapshot () =
  let d = make_spool three_jobs in
  let metrics = Filename.concat d "metrics.prom" in
  let cfg = { (quiet_config d) with Service.metrics_path = Some metrics } in
  let stats, r = Bistpath_telemetry.Telemetry.collect (fun () -> Service.run cfg) in
  check Alcotest.int "all jobs completed" 3 stats.Service.completed;
  let text = read_file metrics in
  List.iter
    (fun needle -> check Alcotest.bool ("snapshot has " ^ needle) true (contains text needle))
    [ "# TYPE bistpath_service_queue_depth gauge";
      "# TYPE bistpath_service_jobs_completed_total counter";
      "# TYPE bistpath_service_job_ns summary";
      "bistpath_service_job_ns{quantile=\"0.5\"} ";
      "bistpath_service_job_ns{quantile=\"0.99\"} ";
      "bistpath_service_job_ns_count 3";
      "# TYPE bistpath_service_breaker_run gauge";
    ];
  (match metric_value text "bistpath_service_queue_depth" with
  | Some v -> check Alcotest.bool "queue depth >= 0" true (v >= 0)
  | None -> Alcotest.fail "queue depth sample missing");
  (* the caller's recorder was used (not replaced) and holds the
     latency distribution *)
  check Alcotest.bool "job_ns count" true
    (contains
       (Bistpath_telemetry.Telemetry.prometheus_text r)
       "bistpath_service_job_ns_count 3\n");
  rm_rf d

let trace_dir_ring () =
  let d = make_spool three_jobs in
  let tdir = Filename.concat d "traces" in
  let cfg =
    { (quiet_config d) with Service.trace_dir = Some tdir; trace_keep = 2 }
  in
  let stats, r = Bistpath_telemetry.Telemetry.collect (fun () -> Service.run cfg) in
  check Alcotest.int "all jobs completed" 3 stats.Service.completed;
  let traces =
    Sys.readdir tdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace.json")
    |> List.sort compare
  in
  (* ring bound: 3 jobs, keep 2 -> oldest evicted *)
  check (Alcotest.list Alcotest.string) "ring keeps newest two"
    [ "j2.trace.json"; "j3.trace.json" ] traces;
  List.iter
    (fun f ->
      let text = read_file (Filename.concat tdir f) in
      match Json.parse text with
      | Error e -> Alcotest.failf "%s: invalid trace JSON: %s" f e
      | Ok v ->
        check Alcotest.bool (f ^ " has traceEvents") true (Json.member "traceEvents" v <> None);
        check Alcotest.bool (f ^ " has job span") true (contains text {|"name":"job"|});
        check Alcotest.bool (f ^ " has attempt span") true
          (contains text {|"name":"attempt"|}))
    traces;
  (* per-job scalar aggregates folded back into the caller's recorder *)
  check Alcotest.bool "job_ns merged" true
    (contains
       (Bistpath_telemetry.Telemetry.prometheus_text r)
       "bistpath_service_job_ns_count 3\n");
  rm_rf d

(* Scrape --metrics while the daemon is mid-job: the atomic snapshot
   must always read back as a complete, parseable exposition. *)
let metrics_scrape_mid_run () =
  let d = make_spool three_jobs in
  let journal = Filename.concat d "journal.ndjson" in
  let metrics = Filename.concat d "metrics.prom" in
  let pid =
    spawn_synth
      [ "serve"; d; "--job-delay-ms"; "400"; "--quiet";
        "--metrics"; metrics; "--metrics-interval-ms"; "10" ]
  in
  let started = wait_for_start ~journal "j2" in
  if not started then Unix.kill pid Sys.sigkill;
  check Alcotest.bool "second job started" true started;
  let text = if Sys.file_exists metrics then read_file metrics else "" in
  Unix.kill pid Sys.sigterm;
  ignore (wait_exit pid);
  check Alcotest.bool "mid-run snapshot exists" true (String.length text > 0);
  check Alcotest.bool "queue-depth gauge present" true
    (contains text "# TYPE bistpath_service_queue_depth gauge");
  (match metric_value text "bistpath_service_queue_depth" with
  | Some v -> check Alcotest.bool "queue depth >= 0" true (v >= 0)
  | None -> Alcotest.fail "queue depth sample missing");
  rm_rf d

(* --- verify pipeline ----------------------------------------------- *)

let service_verify_pipeline () =
  let d = make_spool [ {|{"id":"v1","spec":"ex1","pipeline":"verify"}|} ] in
  let stats = Service.run (quiet_config d) in
  check Alcotest.int "completed" 1 stats.Service.completed;
  check Alcotest.int "failed" 0 stats.Service.failed;
  (match Json.parse (String.trim (read_file (out_file d "v1"))) with
  | Error e -> Alcotest.failf "verify artifact is not JSON: %s" e
  | Ok j ->
    check
      Alcotest.(option bool)
      "reports equivalence" (Some true)
      (Option.bind (Json.member "equivalent" j) Json.to_bool);
    check Alcotest.bool "counts vectors" true
      (match Option.bind (Json.member "vectors_run" j) Json.to_int with
      | Some n -> n > 0
      | None -> false));
  rm_rf d

let flags_reject_garbage () =
  let expect_4 args = check Alcotest.int (String.concat " " args) 4 (run_synth args) in
  expect_4 [ "run"; "ex1"; "--timeout=-1" ];
  expect_4 [ "run"; "ex1"; "--timeout=soon" ];
  expect_4 [ "run"; "ex1"; "--leaf-budget=-5" ];
  expect_4 [ "run"; "ex1"; "--max-errors=many" ];
  expect_4 [ "serve"; "/no/such/spool-dir" ];
  expect_4 [ "serve"; "--max-attempts=0" ]

let suite =
  [
    case "json: parse/print roundtrip" json_roundtrip;
    case "json: unicode escapes decode to UTF-8" json_unicode;
    case "json: malformed documents rejected" json_errors;
    case "json: accessors" json_accessors;
    case "atomic_io: write/overwrite, no temp droppings" atomic_write_roundtrip;
    case "atomic_io: failure raises Sys_error" atomic_write_failure;
    case "job: defaults" job_defaults;
    case "job: invalid specs rejected" job_rejections;
    case "job: json roundtrip" job_json_roundtrip;
    case "journal: append/replay roundtrip" journal_roundtrip;
    case "journal: torn final line tolerated" journal_torn_tail;
    case "journal: torn tail repaired on reopen" journal_torn_tail_repaired_on_reopen;
    case "journal: mid-file corruption raises" journal_corruption_raises;
    case "journal: fold_state" journal_fold_state;
    case "transition: lifecycle decision table" transition_table;
    case "transition: backoff within [0.5, 1.5) x base x 2^(n-1)"
      transition_backoff_bounds;
    case "breaker: closed/open/half-open machine" breaker_machine;
    case "breaker: verdict-less probe re-probes, no starvation"
      breaker_reprobe_without_verdict;
    case "service: end-to-end, deterministic, resume is idempotent" service_end_to_end;
    case "service: bad specs become typed failures" service_bad_specs;
    case "service: verify pipeline proves the emitted RTL equivalent"
      service_verify_pipeline;
    case "service: drain leaves pending work, resume matches clean run"
      service_drain_and_resume;
    case "service: drain does not charge the interrupted attempt"
      drain_does_not_consume_last_attempt;
    case "inject service.worker: crashes contained, retries, breaker"
      injected_worker_crashes_are_contained;
    case "inject service.result_io: write failures retried" injected_result_io_is_retried;
    case "inject service.journal: daemon survives, work completes"
      injected_journal_faults_degrade_gracefully;
    case "inject: deterministic under a fixed seed" injection_is_deterministic;
    case "binary: SIGKILL mid-job, resume is exactly-once and byte-identical"
      sigkill_resume_exactly_once;
    case "binary: SIGTERM drains, exit 3, resume completes" sigterm_drains_gracefully;
    case "binary: stdin job source" serve_from_stdin;
    case "binary: garbage numeric flags exit 4" flags_reject_garbage;
    case "observability: --metrics snapshot is a valid exposition" metrics_snapshot;
    case "observability: per-job traces honour the --trace-keep ring" trace_dir_ring;
    case "binary: --metrics scraped mid-run parses and is complete"
      metrics_scrape_mid_run;
  ]
