(* Deterministic chaos harness for the `synth serve` worker fleet.

   Drives the *real* binary: generates a seeded NDJSON job stream (a
   clean/injected/poisoned mix), runs it through a multi-worker fleet
   while SIGKILLing workers on a seeded schedule, then re-runs the same
   stream through a clean in-process reference and checks the fleet's
   crash-recovery contract:

     1. exit-code protocol — the supervisor exits 0 (all clean) or 3
        (failed/rejected jobs), never crashes;
     2. exactly-once — the merged journal (supervisor + worker shards)
        holds at most one terminal record per job id;
     3. byte-identity — every artifact the fleet produced is
        byte-identical to the clean reference's artifact for that id;
        with no injection and no poison, the artifact *sets* match too;
     4. parse-back equivalence — every completed `rtl` job's artifact
        parses back structurally and functionally equivalent to the
        data path re-synthesized from its spec (byte-identity says the
        fleet wrote the right bytes; this says the bytes mean what the
        flow meant).

   Every random choice (job mix, poison placement, kill times, victim
   slots) derives from --seed, so a failure reproduces with the same
   command line. Kill *timing* still races the scheduler — a scheduled
   kill may find its victim slot between jobs or already respawning —
   but the invariants above hold under any interleaving, which is the
   point.

   Exit codes: 0 contract holds, 1 violation, 2 usage or I/O error. *)

module Json = Bistpath_util.Json
module Prng = Bistpath_util.Prng
module Journal = Bistpath_service.Journal
module Job = Bistpath_service.Job
module Bench = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Equiv = Bistpath_rtl.Equiv
module Runner = Bistpath_service.Runner

let usage () =
  prerr_endline
    "usage: chaos [--synth PATH] [--dir DIR] [--jobs N] [--workers N]\n\
    \             [--kills K] [--seed S] [--poisoned N] [--inject SPEC]\n\
    \             [--job-delay-ms MS] [--keep]\n\n\
     Runs a seeded job mix through `synth serve --workers N` while\n\
     SIGKILLing workers on a seeded schedule, then verifies exit codes,\n\
     exactly-once journalling and byte-identity against a clean\n\
     in-process reference run.\n\n\
    \  --synth         synth binary (default: ../bin/synth.exe beside this exe)\n\
    \  --dir           scratch directory (default: under $TMPDIR)\n\
    \  --jobs          total jobs in the stream (default 400)\n\
    \  --workers       fleet width for the chaos run (default 4)\n\
    \  --kills         scheduled worker SIGKILLs (default 4)\n\
    \  --seed          root seed for mix + schedule (default 42)\n\
    \  --poisoned      jobs with an unknown spec, rejected by design (default 8)\n\
    \  --inject        BISTPATH_INJECT spec for the chaos run (e.g.\n\
    \                  service.worker=0.05); reference always runs clean\n\
    \  --job-delay-ms  per-attempt delay, stretches the kill window (default 5)\n\
    \  --keep          keep the scratch directory for inspection\n";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("chaos: " ^ s); exit 2) fmt
let violation = ref 0

let bad fmt =
  Printf.ksprintf
    (fun s ->
      incr violation;
      prerr_endline ("chaos: VIOLATION: " ^ s))
    fmt

let note fmt = Printf.ksprintf (fun s -> prerr_endline ("chaos: " ^ s)) fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

(* --- job stream ----------------------------------------------------- *)

let specs = [| "ex1"; "ex2"; "Tseng1"; "Paulin" |]
let pipelines = [| "run"; "rtl" |]

(* Poison slots are a seeded sample without replacement so the same
   seed always poisons the same ids regardless of --jobs order. *)
let gen_jobs prng ~count ~poisoned =
  let poison = Hashtbl.create 16 in
  let budget = min poisoned count in
  while Hashtbl.length poison < budget do
    Hashtbl.replace poison (Prng.int prng count) ()
  done;
  List.init count (fun i ->
      let id = Printf.sprintf "job-%04d" i in
      let spec =
        if Hashtbl.mem poison i then "no-such-benchmark"
        else specs.(Prng.int prng (Array.length specs))
      in
      let pipeline = pipelines.(Prng.int prng (Array.length pipelines)) in
      ( id,
        Hashtbl.mem poison i,
        Printf.sprintf {|{"id":"%s","spec":"%s","pipeline":"%s"}|} id spec
          pipeline ))

(* --- subprocess plumbing -------------------------------------------- *)

let spawn ?(env = []) ~stdout_file argv =
  let out =
    Unix.openfile stdout_file [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let full_env =
    Array.append (Unix.environment ()) (Array.of_list env)
  in
  let pid =
    Unix.create_process_env argv.(0) argv full_env Unix.stdin out Unix.stderr
  in
  Unix.close out;
  pid

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s -> 128 + s
  | Unix.WSTOPPED _ -> fail "child stopped unexpectedly"

(* --- chaos schedule -------------------------------------------------- *)

let worker_pid_of_slot workers_json slot =
  if not (Sys.file_exists workers_json) then None
  else
    match Json.parse (read_file workers_json) with
    | Error _ -> None (* mid-rewrite; the file is replaced atomically *)
    | Ok j -> (
      match Json.member "workers" j with
      | Some (Json.Obj fields) -> (
        match List.assoc_opt (string_of_int slot) fields with
        | Some v -> (
          match Json.to_int v with
          | Some pid when pid > 1 -> Some pid
          | _ -> None)
        | None -> None)
      | _ -> None)

(* Sleep in slices, bailing out as soon as the supervisor exits so a
   fast run does not hang the harness on the remaining schedule. *)
let sup_done = ref None

let sup_alive sup =
  match !sup_done with
  | Some _ -> false
  | None -> (
    match Unix.waitpid [ Unix.WNOHANG ] sup with
    | 0, _ -> true
    | _, Unix.WEXITED c ->
      sup_done := Some c;
      false
    | _, Unix.WSIGNALED s ->
      sup_done := Some (128 + s);
      false
    | _, Unix.WSTOPPED _ -> true)

let sleep_while_alive sup seconds =
  let slices = int_of_float (seconds /. 0.02) in
  let i = ref 0 in
  while !i < max 1 slices && sup_alive sup do
    Unix.sleepf 0.02;
    incr i
  done

let run_schedule prng ~sup ~workers ~kills ~workers_json =
  let landed = ref 0 in
  for k = 1 to kills do
    if sup_alive sup then begin
      (* 0.15-0.65 s apart: early enough to land mid-batch, spread
         enough that respawned workers get killed too. *)
      let delay = 0.15 +. (float_of_int (Prng.int prng 500) /. 1000.0) in
      sleep_while_alive sup delay;
      let slot = Prng.int prng workers in
      if sup_alive sup then
        match worker_pid_of_slot workers_json slot with
        | Some pid ->
          (try
             Unix.kill pid Sys.sigkill;
             incr landed;
             note "kill %d/%d: SIGKILL worker slot %d (pid %d)" k kills slot
               pid
           with Unix.Unix_error _ -> note "kill %d/%d: slot %d already gone" k kills slot)
        | None -> note "kill %d/%d: slot %d has no live pid, skipped" k kills slot
    end
  done;
  !landed

(* --- verification ---------------------------------------------------- *)

let terminal_counts events =
  let tbl = Hashtbl.create 64 in
  let bump id =
    Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  List.iter
    (function
      | Journal.Done { id; _ } | Journal.Give_up { id; _ } -> bump id
      | Journal.Accept _ | Start _ | Fail _ | Interrupted _ | Drain -> ())
    events;
  tbl

let out_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".out")
    |> List.sort compare

let stats_field stdout_file name =
  match Json.parse (read_file stdout_file) with
  | Error _ -> None
  | Ok j -> Option.bind (Json.member name j) Json.to_int

let () =
  let synth = ref "" in
  let dir = ref "" in
  let jobs = ref 400 in
  let workers = ref 4 in
  let kills = ref 4 in
  let seed = ref 42 in
  let poisoned = ref 8 in
  let inject = ref "" in
  let job_delay = ref 5 in
  let keep = ref false in
  let int_arg flag v rest k =
    match int_of_string_opt v with
    | Some n when n >= 0 -> k n rest
    | _ -> fail "%s %s: expected a non-negative integer" flag v
  in
  let rec parse_args = function
    | [] -> ()
    | "--synth" :: v :: rest ->
      synth := v;
      parse_args rest
    | "--dir" :: v :: rest ->
      dir := v;
      parse_args rest
    | "--jobs" :: v :: rest ->
      int_arg "--jobs" v rest (fun n r -> jobs := max 1 n; parse_args r)
    | "--workers" :: v :: rest ->
      int_arg "--workers" v rest (fun n r -> workers := max 1 n; parse_args r)
    | "--kills" :: v :: rest ->
      int_arg "--kills" v rest (fun n r -> kills := n; parse_args r)
    | "--seed" :: v :: rest ->
      int_arg "--seed" v rest (fun n r -> seed := n; parse_args r)
    | "--poisoned" :: v :: rest ->
      int_arg "--poisoned" v rest (fun n r -> poisoned := n; parse_args r)
    | "--inject" :: v :: rest ->
      inject := v;
      parse_args rest
    | "--job-delay-ms" :: v :: rest ->
      int_arg "--job-delay-ms" v rest (fun n r -> job_delay := n; parse_args r)
    | "--keep" :: rest ->
      keep := true;
      parse_args rest
    | ("--help" | "-h") :: _ -> usage ()
    | a :: _ -> fail "unknown argument %s (try --help)" a
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let synth =
    if !synth <> "" then !synth
    else
      Filename.concat
        (Filename.concat (Filename.dirname Sys.executable_name) "..")
        (Filename.concat "bin" "synth.exe")
  in
  if not (Sys.file_exists synth) then
    fail "%s: synth binary not found (build bin/synth.exe or pass --synth)" synth;
  let root =
    if !dir <> "" then !dir
    else
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "bistpath-chaos-%d" (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  let chaos_dir = Filename.concat root "chaos" in
  let ref_dir = Filename.concat root "reference" in
  Unix.mkdir chaos_dir 0o755;
  Unix.mkdir ref_dir 0o755;

  let prng = Prng.create !seed in
  let stream = gen_jobs (Prng.split prng) ~count:!jobs ~poisoned:!poisoned in
  let lines = List.map (fun (_, _, l) -> l) stream in
  let poison_count = List.length (List.filter (fun (_, p, _) -> p) stream) in
  write_lines (Filename.concat chaos_dir "jobs.ndjson") lines;
  write_lines (Filename.concat ref_dir "jobs.ndjson") lines;
  note "%d jobs (%d poisoned), workers %d, kills %d, seed %d%s" !jobs
    poison_count !workers !kills !seed
    (if !inject <> "" then ", inject " ^ !inject else "");

  (* --- clean in-process reference --------------------------------- *)
  let ref_stdout = Filename.concat root "reference.stats.json" in
  let ref_code =
    wait_exit
      (spawn ~stdout_file:ref_stdout
         [| synth; "serve"; ref_dir; "--quiet"; "--seed"; string_of_int !seed |])
  in
  let want_ref = if poison_count > 0 then 3 else 0 in
  if ref_code <> want_ref then
    bad "reference run exited %d, expected %d" ref_code want_ref;

  (* --- chaos fleet run --------------------------------------------- *)
  let chaos_stdout = Filename.concat root "chaos.stats.json" in
  let argv =
    [| synth; "serve"; chaos_dir; "--quiet";
       "--workers"; string_of_int !workers;
       "--seed"; string_of_int !seed;
       "--heartbeat-interval-ms"; "100";
       "--lease-expiry-ms"; "3000";
       "--job-delay-ms"; string_of_int !job_delay;
    |]
  in
  let env =
    if !inject = "" then []
    else
      [ "BISTPATH_INJECT=" ^ !inject;
        "BISTPATH_INJECT_SEED=" ^ string_of_int !seed ]
  in
  sup_done := None;
  let sup = spawn ~env ~stdout_file:chaos_stdout argv in
  let journal = Filename.concat chaos_dir "journal.ndjson" in
  let workers_json = Filename.concat (journal ^ ".fleet") "workers.json" in
  let landed =
    run_schedule (Prng.split prng) ~sup ~workers:!workers ~kills:!kills
      ~workers_json
  in
  while sup_alive sup do
    Unix.sleepf 0.05
  done;
  let chaos_code = Option.value ~default:(-1) !sup_done in
  note "chaos run exited %d; %d/%d scheduled kills landed" chaos_code landed
    !kills;

  (* 1. exit-code protocol: 0 clean, 3 degraded/failed/rejected. 3
     without poison or injection is still legal — a job SIGKILLed on
     its final retry fails permanently — but 3 must then be explained
     by the stats, checked below. Anything else is a crash. *)
  if chaos_code <> 0 && chaos_code <> 3 then
    bad "chaos run exited %d (protocol allows 0 or 3)" chaos_code;
  (match
     ( stats_field chaos_stdout "failed",
       stats_field chaos_stdout "rejected_specs",
       stats_field chaos_stdout "degraded" )
   with
  | Some failed, Some rejected, Some degraded ->
    if chaos_code = 3 && failed + rejected + degraded = 0 then
      bad "exit 3 with zero failed/rejected/degraded jobs";
    if chaos_code = 0 && failed + rejected > 0 then
      bad "exit 0 despite %d failed + %d rejected jobs" failed rejected
  | _ -> bad "chaos stats JSON missing or unparsable in %s" chaos_stdout);

  (* 2. exactly-once across the merged journal. *)
  let events =
    try Journal.replay_merged journal
    with Sys_error e ->
      bad "merged journal replay failed: %s" e;
      []
  in
  let terminals = terminal_counts events in
  Hashtbl.iter
    (fun id n -> if n > 1 then bad "job %s has %d terminal records" id n)
    terminals;
  let states = Journal.fold_state events in
  List.iter
    (fun (st : Journal.job_state) ->
      if not st.terminal then
        bad "job %s never reached a terminal record" st.job.Bistpath_service.Job.id)
    states;
  if List.length states <> !jobs then
    bad "journal accepted %d jobs, stream had %d" (List.length states) !jobs;

  (* 3. byte-identity against the reference. *)
  let chaos_results = Filename.concat chaos_dir "results" in
  let ref_results = Filename.concat ref_dir "results" in
  let chaos_outs = out_files chaos_results in
  let ref_outs = out_files ref_results in
  List.iter
    (fun f ->
      let c = Filename.concat chaos_results f in
      let r = Filename.concat ref_results f in
      if not (Sys.file_exists r) then
        bad "%s produced by the fleet but not the reference" f
      else if read_file c <> read_file r then
        bad "%s differs between fleet and reference" f)
    chaos_outs;
  if !inject = "" then begin
    (* No injection: every non-poisoned job must complete in both runs
       (a kill only delays a job, it cannot lose it), so the artifact
       sets must be exactly equal. *)
    if chaos_outs <> ref_outs then
      bad "artifact sets differ: fleet %d files, reference %d files"
        (List.length chaos_outs) (List.length ref_outs);
    if List.length chaos_outs <> !jobs - poison_count then
      bad "expected %d artifacts, fleet produced %d" (!jobs - poison_count)
        (List.length chaos_outs)
  end;
  note "verified %d artifacts byte-identical, %d terminal records"
    (List.length chaos_outs) (Hashtbl.length terminals);

  (* 4. parse-back equivalence on every completed rtl artifact. Same
     spec + same defaults = byte-identical artifact, so each distinct
     (spec, bytes) pair is verified once and later artifacts only pay
     a byte comparison. *)
  let verified_rtl = Hashtbl.create 8 in
  let rtl_checked = ref 0 in
  List.iter
    (fun (id, poisoned, line) ->
      let out = Filename.concat chaos_results (id ^ ".out") in
      if (not poisoned) && Sys.file_exists out then
        match Job.parse_line ~default_id:id line with
        | Error _ | Ok { Job.pipeline = Job.Run | Pareto | Coverage | Export
                         | Check | Verify; _ } -> ()
        | Ok ({ Job.pipeline = Job.Rtl; _ } as j) -> (
          match Bench.by_tag j.Job.spec with
          | None -> ()
          | Some inst ->
            incr rtl_checked;
            let rtl = read_file out in
            if Hashtbl.find_opt verified_rtl j.Job.spec <> Some rtl then begin
              let r = Runner.flow ~budget:Bistpath_resilience.Budget.unlimited inst j in
              List.iter
                (fun f -> bad "%s: rtl artifact: %s" id (Equiv.line f))
                (Equiv.verdict
                   (Equiv.verify ~width:j.Job.width ~bist:r.Flow.bist ~rtl r.Flow.datapath));
              Hashtbl.replace verified_rtl j.Job.spec rtl
            end))
    stream;
  note "parse-back equivalence verified on %d rtl artifacts (%d distinct specs)"
    !rtl_checked (Hashtbl.length verified_rtl);

  (match
     ( stats_field chaos_stdout "worker_deaths_signal",
       stats_field chaos_stdout "lease_steals",
       stats_field chaos_stdout "worker_restarts" )
   with
  | Some ds, Some steals, Some restarts ->
    note "fleet stats: deaths_signal %d, lease_steals %d, restarts %d" ds
      steals restarts
  | _ -> ());

  if !keep then note "scratch kept at %s" root else rm_rf root;
  if !violation > 0 then begin
    note "%d violation(s)" !violation;
    exit 1
  end
  else print_endline "chaos: ok"
