(* Fleet mode: the lease claim/steal substrate, journal-shard merging
   (including a torn shard tail staying local to its shard), and the
   real binary under fire — a SIGKILLed worker, a SIGSTOPped worker
   whose heartbeat expires, and a SIGKILLed supervisor resumed from
   the merged shards. Every scenario must end with each job's result
   committed exactly once, byte-identical to an undisturbed run. *)

module Json = Bistpath_util.Json
module Job = Bistpath_service.Job
module Journal = Bistpath_service.Journal
module Lease = Bistpath_service.Lease

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* --- scratch helpers (mirrors test_service.ml) ---------------------- *)

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
        (Printf.sprintf "bistpath-test-fleet-%d-%d" (Unix.getpid ()) !n)
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

let out_file dir id = Filename.concat (Filename.concat dir "results") (id ^ ".out")

let parse_job id =
  match
    Job.parse_line ~default_id:id
      (Printf.sprintf {|{"id":%S,"spec":"ex1","pipeline":"run"}|} id)
  with
  | Ok j -> j
  | Error e -> Alcotest.failf "job spec: %s" e

let job id = { Lease.job = parse_job id; attempts = 0 }

(* --- lease protocol ------------------------------------------------- *)

let lease_claim_exclusive () =
  let root = Filename.concat (tmpdir ()) "fleet" in
  let t = Lease.create ~root ~slots:2 in
  List.iter (fun id -> Lease.submit t (job id)) [ "a"; "b"; "c" ];
  check Alcotest.int "three pending" 3 (Lease.pending_count t);
  (* alternating claims drain the queue with no double-claims *)
  let claimed = ref [] in
  let rec drain slot =
    match Lease.claim t ~slot with
    | Some l ->
      claimed := (l.Lease.job.Job.id, slot) :: !claimed;
      drain (1 - slot)
    | None -> ()
  in
  drain 0;
  check Alcotest.int "all claimed" 3 (List.length !claimed);
  check Alcotest.int "no pending left" 0 (Lease.pending_count t);
  check Alcotest.int "all held" 3 (Lease.held_count t);
  let ids = List.sort compare (List.map fst !claimed) in
  check Alcotest.(list string) "each id exactly once" [ "a"; "b"; "c" ] ids;
  List.iter (fun (id, slot) -> Lease.release t ~slot id) !claimed;
  check Alcotest.int "released" 0 (Lease.held_count t);
  rm_rf root

let lease_steal_preserves_attempts () =
  let root = Filename.concat (tmpdir ()) "fleet" in
  let t = Lease.create ~root ~slots:2 in
  Lease.submit t (job "a");
  (match Lease.claim t ~slot:0 with
  | None -> Alcotest.fail "claim failed"
  | Some l ->
    check Alcotest.int "fresh lease" 0 l.Lease.attempts;
    (* the worker bumps the lease before each attempt starts *)
    Lease.update t ~slot:0 { l with Lease.attempts = 2 });
  (* supervisor steals it back after the worker "dies" *)
  check Alcotest.(list string) "held by slot 0" [ "a" ]
    (List.map (fun (l : Lease.lease) -> l.job.Job.id) (Lease.held t ~slot:0));
  Lease.requeue t ~slot:0 "a";
  check Alcotest.int "back in pending" 1 (Lease.pending_count t);
  (match Lease.claim t ~slot:1 with
  | None -> Alcotest.fail "re-claim failed"
  | Some l ->
    check Alcotest.int "attempt count survived the steal" 2 l.Lease.attempts);
  Lease.discard t ~slot:1 "a";
  check Alcotest.int "discarded" 0 (Lease.held_count t);
  rm_rf root

let lease_eof_and_reset () =
  let root = Filename.concat (tmpdir ()) "fleet" in
  let t = Lease.create ~root ~slots:1 in
  Lease.submit t (job "a");
  check Alcotest.bool "no eof yet" false (Lease.eof t);
  Lease.mark_eof t;
  check Alcotest.bool "eof marked" true (Lease.eof t);
  Lease.beat t ~slot:0;
  check Alcotest.bool "beat recorded" true (Lease.beat_mtime t ~slot:0 <> None);
  Lease.reset t;
  check Alcotest.int "reset clears pending" 0 (Lease.pending_count t);
  check Alcotest.bool "reset clears eof" false (Lease.eof t);
  check Alcotest.bool "reset clears heartbeat" true
    (Lease.beat_mtime t ~slot:0 = None);
  rm_rf root

(* --- journal shards ------------------------------------------------- *)

let append_all path events =
  let j = Journal.open_ path in
  List.iter (Journal.append j) events;
  Journal.close j

let shard_merge_order_free () =
  let d = tmpdir () in
  let path = Filename.concat d "journal.ndjson" in
  (* accepts in the supervisor journal; execution records scattered
     across two worker shards, as a real fleet run leaves them *)
  append_all path
    [ Journal.Accept (parse_job "a"); Journal.Accept (parse_job "b") ];
  append_all (Journal.shard_path path 0)
    [
      Journal.Start { id = "a"; attempt = 1 };
      Journal.Done
        { id = "a"; attempt = 1; status = "ok"; reason = None; cache = None };
    ];
  append_all (Journal.shard_path path 1)
    [
      Journal.Start { id = "b"; attempt = 1 };
      Journal.Fail { id = "b"; attempt = 1; error = "boom" };
    ];
  check Alcotest.(list string) "shards discovered in slot order"
    [ Journal.shard_path path 0; Journal.shard_path path 1 ]
    (Journal.shards path);
  let states = Journal.fold_state (Journal.replay_merged path) in
  check Alcotest.int "both jobs present" 2 (List.length states);
  List.iter
    (fun (js : Journal.job_state) ->
      match js.job.Job.id with
      | "a" ->
        check Alcotest.bool "a terminal" true js.terminal;
        check Alcotest.int "a attempts" 1 js.attempts
      | "b" ->
        check Alcotest.bool "b pending" false js.terminal;
        check Alcotest.int "b attempts" 1 js.attempts
      | id -> Alcotest.failf "unexpected job %s" id)
    states;
  rm_rf d

(* A worker SIGKILLed mid-append leaves a torn final line in its own
   shard. The merge must repair/ignore that tail locally: the torn
   shard's job stays correctly pending, and jobs journaled in *other*
   shards keep their full replayed state. *)
let shard_torn_tail_stays_local () =
  let d = tmpdir () in
  let path = Filename.concat d "journal.ndjson" in
  append_all path
    [ Journal.Accept (parse_job "a"); Journal.Accept (parse_job "b") ];
  append_all (Journal.shard_path path 0)
    [ Journal.Start { id = "a"; attempt = 1 } ];
  (* torn tail: the done record's write was cut by SIGKILL *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Journal.shard_path path 0)
  in
  output_string oc {|{"ev":"done","id":"a","att|};
  close_out oc;
  append_all (Journal.shard_path path 1)
    [
      Journal.Start { id = "b"; attempt = 1 };
      Journal.Done
        { id = "b"; attempt = 1; status = "ok"; reason = None; cache = None };
    ];
  let states = Journal.fold_state (Journal.replay_merged path) in
  List.iter
    (fun (js : Journal.job_state) ->
      match js.job.Job.id with
      | "a" ->
        check Alcotest.bool "torn done ignored: a still pending" false
          js.terminal;
        check Alcotest.int "a keeps its charged attempt" 1 js.attempts
      | "b" -> check Alcotest.bool "other shard unaffected: b done" true js.terminal
      | id -> Alcotest.failf "unexpected job %s" id)
    states;
  (* and re-opening the torn shard repairs the tail for good *)
  Journal.close (Journal.open_ (Journal.shard_path path 0));
  check Alcotest.int "repaired shard replays cleanly" 1
    (List.length (Journal.replay_merged (Journal.shard_path path 0)));
  rm_rf d

(* --- the real binary under fire ------------------------------------- *)

let synth_exe =
  Filename.concat Filename.parent_dir_name (Filename.concat "bin" "synth.exe")

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

(* Poll the supervisor journal and every worker shard until job [id]'s
   first [start] record lands somewhere. *)
let wait_for_start_merged ~journal id =
  let needle = Printf.sprintf {|"ev":"start","id":"%s"|} id in
  let contains s =
    let nl = String.length needle and sl = String.length s in
    let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let seen =
      List.exists
        (fun f -> Sys.file_exists f && contains (read_file f))
        (journal :: Journal.shards journal)
    in
    if seen then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* The worker pid map the supervisor maintains for exactly this kind of
   external meddling. *)
let worker_pids ~journal =
  let path = Filename.concat (journal ^ ".fleet") "workers.json" in
  if not (Sys.file_exists path) then []
  else
    match Json.parse (read_file path) with
    | Error _ -> []
    | Ok v -> (
      match Json.member "workers" v with
      | Some (Json.Obj entries) ->
        List.filter_map
          (fun (_, p) ->
            match Json.to_int p with Some pid when pid > 0 -> Some pid | _ -> None)
          entries
      | _ -> [])

let wait_for_worker_pids ~journal n =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let pids = worker_pids ~journal in
    if List.length pids >= n then pids
    else if Unix.gettimeofday () > deadline then pids
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let fleet_jobs n prefix =
  List.init n (fun i ->
      Printf.sprintf {|{"id":"%s%d","spec":"ex1","pipeline":"run"}|} prefix (i + 1))

let job_ids n prefix = List.init n (fun i -> Printf.sprintf "%s%d" prefix (i + 1))

let check_done_exactly_once ~journal ids =
  let events = Journal.replay_merged journal in
  List.iter
    (fun id ->
      let dones =
        List.length
          (List.filter
             (function
               | Journal.Done { id = i; _ } -> String.equal i id | _ -> false)
             events)
      in
      check Alcotest.int (id ^ " committed exactly once") 1 dones)
    ids

let check_byte_identical ~ref_dir ~dir ids =
  List.iter
    (fun id ->
      check Alcotest.string
        (id ^ " byte-identical to the undisturbed run")
        (read_file (out_file ref_dir id))
        (read_file (out_file dir id)))
    ids

let fleet_clean_byte_identical () =
  let n = 6 in
  let d = make_spool (fleet_jobs n "f") in
  let ref_dir = make_spool (fleet_jobs n "f") in
  check Alcotest.int "in-process reference exits 0" 0
    (run_synth [ "serve"; ref_dir; "--quiet" ]);
  check Alcotest.int "fleet run exits 0" 0
    (run_synth [ "serve"; d; "--workers"; "3"; "--quiet" ]);
  check_byte_identical ~ref_dir ~dir:d (job_ids n "f");
  check_done_exactly_once ~journal:(Filename.concat d "journal.ndjson")
    (job_ids n "f");
  rm_rf d;
  rm_rf ref_dir

let fleet_worker_sigkill_recovers () =
  let n = 8 in
  let d = make_spool (fleet_jobs n "k") in
  let ref_dir = make_spool (fleet_jobs n "k") in
  check Alcotest.int "in-process reference exits 0" 0
    (run_synth [ "serve"; ref_dir; "--quiet" ]);
  let journal = Filename.concat d "journal.ndjson" in
  let pid =
    spawn_synth
      [ "serve"; d; "--workers"; "2"; "--job-delay-ms"; "300"; "--quiet" ]
  in
  let started = wait_for_start_merged ~journal "k1" in
  if not started then Unix.kill pid Sys.sigkill;
  check Alcotest.bool "a job started" true started;
  (match wait_for_worker_pids ~journal 1 with
  | [] -> Alcotest.fail "no worker pid published"
  | victim :: _ -> Unix.kill victim Sys.sigkill);
  check Alcotest.bool "fleet run survives the worker kill" true
    (wait_exit pid = `Exited 0);
  check_byte_identical ~ref_dir ~dir:d (job_ids n "k");
  check_done_exactly_once ~journal (job_ids n "k");
  rm_rf d;
  rm_rf ref_dir

let fleet_sigstop_heartbeat_steal () =
  let n = 6 in
  let d = make_spool (fleet_jobs n "h") in
  let journal = Filename.concat d "journal.ndjson" in
  let pid =
    spawn_synth
      [
        "serve"; d; "--workers"; "2"; "--job-delay-ms"; "300";
        "--heartbeat-interval-ms"; "50"; "--lease-expiry-ms"; "500"; "--quiet";
      ]
  in
  let started = wait_for_start_merged ~journal "h1" in
  if not started then Unix.kill pid Sys.sigkill;
  check Alcotest.bool "a job started" true started;
  (match wait_for_worker_pids ~journal 1 with
  | [] -> Alcotest.fail "no worker pid published"
  | victim :: _ ->
    (* alive but silent: only the heartbeat monitor can catch this *)
    Unix.kill victim Sys.sigstop);
  check Alcotest.bool "fleet heals around the stopped worker" true
    (wait_exit pid = `Exited 0);
  List.iter
    (fun id ->
      check Alcotest.bool (id ^ " committed") true
        (Sys.file_exists (out_file d id)))
    (job_ids n "h");
  check_done_exactly_once ~journal (job_ids n "h");
  rm_rf d

let fleet_supervisor_sigkill_resume () =
  let n = 10 in
  let d = make_spool (fleet_jobs n "r") in
  let ref_dir = make_spool (fleet_jobs n "r") in
  check Alcotest.int "in-process reference exits 0" 0
    (run_synth [ "serve"; ref_dir; "--quiet" ]);
  let journal = Filename.concat d "journal.ndjson" in
  let pid =
    spawn_synth
      [ "serve"; d; "--workers"; "2"; "--job-delay-ms"; "300"; "--quiet" ]
  in
  let started = wait_for_start_merged ~journal "r1" in
  if not started then Unix.kill pid Sys.sigkill;
  check Alcotest.bool "a job started" true started;
  let workers = wait_for_worker_pids ~journal 2 in
  Unix.kill pid Sys.sigkill;
  check Alcotest.bool "supervisor killed hard" true
    (wait_exit pid = `Signaled Sys.sigkill);
  (* orphaned workers would keep draining the queue (and racing the
     resume for their shard files); a real crash takes the whole
     process tree, so take it here too *)
  List.iter
    (fun wpid ->
      (try Unix.kill wpid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] wpid) with Unix.Unix_error _ -> ())
    workers;
  Unix.sleepf 0.1;
  check Alcotest.int "fleet resume exits 0" 0
    (run_synth [ "serve"; d; "--workers"; "2"; "--resume"; "--quiet" ]);
  check_byte_identical ~ref_dir ~dir:d (job_ids n "r");
  check_done_exactly_once ~journal (job_ids n "r");
  rm_rf d;
  rm_rf ref_dir

(* --workers honours --trace-dir: each worker writes the per-job trace
   of every job it runs, through the writer the in-process run uses. *)
let fleet_per_job_traces () =
  let d = make_spool (fleet_jobs 3 "t") in
  let tdir = Filename.concat d "traces" in
  check Alcotest.int "fleet run exits 0" 0
    (run_synth [ "serve"; d; "--workers"; "2"; "--trace-dir"; tdir; "--quiet" ]);
  List.iter
    (fun id ->
      let f = Filename.concat tdir (id ^ ".trace.json") in
      check Alcotest.bool (id ^ " trace written") true (Sys.file_exists f);
      if Sys.file_exists f then
        match Json.parse (read_file f) with
        | Error e -> Alcotest.failf "%s: invalid trace JSON: %s" f e
        | Ok v ->
          check Alcotest.bool (id ^ " has traceEvents") true
            (Json.member "traceEvents" v <> None))
    (job_ids 3 "t");
  rm_rf d

(* One stream through both drivers: valid jobs, an invalid spec, a
   duplicate id and a design with invalid input must leave the same
   artifacts, the same exit code and the same job accounting. *)
let parity_stream =
  [
    {|{"id":"p1","spec":"ex1","pipeline":"run"}|};
    {|{"id":"p2","spec":"Paulin","pipeline":"rtl"}|};
    {|not json at all|};
    {|{"id":"p1","spec":"ex1"}|};
    {|{"id":"bad","spec":"zzz-not-a-benchmark"}|};
    {|{"id":"p3","spec":"ex1","pipeline":"export"}|};
  ]

let serve_with_stats dir args =
  let stats_file = dir ^ ".stats" in
  let out =
    Unix.openfile stats_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let err = devnull () in
  let pid =
    Unix.create_process synth_exe
      (Array.of_list ((synth_exe :: "serve" :: dir :: "--quiet" :: args)))
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let code = match wait_exit pid with `Exited c -> c | _ -> -1 in
  let stats = read_file stats_file in
  Sys.remove stats_file;
  match Json.parse (String.trim stats) with
  | Error e -> Alcotest.failf "stats line %S: %s" stats e
  | Ok v ->
    ( code,
      List.map
        (fun f -> (f, Option.bind (Json.member f v) Json.to_int))
        [ "accepted"; "completed"; "degraded"; "failed"; "rejected_specs"; "retries";
          "pending" ] )

let inprocess_fleet_parity () =
  let d = make_spool parity_stream in
  let f = make_spool parity_stream in
  let code_d, stats_d = serve_with_stats d [] in
  let code_f, stats_f = serve_with_stats f [ "--workers"; "2" ] in
  check Alcotest.int "same exit code" code_d code_f;
  List.iter2
    (fun (name, a) (_, b) ->
      check Alcotest.(option int) (name ^ " equal in both modes") a b)
    stats_d stats_f;
  let results dir =
    let r = Filename.concat dir "results" in
    Sys.readdir r |> Array.to_list |> List.sort compare
    |> List.map (fun n -> (n, read_file (Filename.concat r n)))
  in
  check
    Alcotest.(list (pair string string))
    "same .out/.err artifacts, byte for byte" (results d) (results f);
  rm_rf d;
  rm_rf f

let suite =
  [
    case "lease: claim is exclusive" lease_claim_exclusive;
    case "lease: steal preserves attempt count" lease_steal_preserves_attempts;
    case "lease: eof marker and reset" lease_eof_and_reset;
    case "shards: merged replay is order-free" shard_merge_order_free;
    case "shards: torn tail stays local to its shard" shard_torn_tail_stays_local;
    case "binary: clean fleet run is byte-identical" fleet_clean_byte_identical;
    case "binary: SIGKILLed worker recovered" fleet_worker_sigkill_recovers;
    case "binary: SIGSTOPped worker heartbeat-stolen" fleet_sigstop_heartbeat_steal;
    case "binary: SIGKILLed supervisor resumes exactly-once"
      fleet_supervisor_sigkill_resume;
    case "binary: fleet writes one per-job trace per job" fleet_per_job_traces;
    case "binary: in-process and fleet runs agree on artifacts and stats"
      inprocess_fleet_parity;
  ]
