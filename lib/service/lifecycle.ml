module Atomic_io = Bistpath_util.Atomic_io
module Prng = Bistpath_util.Prng
module Telemetry = Bistpath_telemetry.Telemetry
module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Inject = Bistpath_resilience.Inject
module Store = Bistpath_cache.Store
open Config

(* --- drain signalling ---------------------------------------------- *)

let drain_flag = Atomic.make false
let current_cancel : Cancel.t option ref = ref None
let drain_cause = "drain requested (SIGINT/SIGTERM)"

let request_drain () =
  Atomic.set drain_flag true;
  match !current_cancel with
  | Some c -> ignore (Cancel.cancel c (Cancel.Cancelled drain_cause))
  | None -> ()

let draining () = Atomic.get drain_flag
let now_ns () = Monotonic_clock.now ()

(* --- spec source --------------------------------------------------- *)

(* One spec line at a time from the spool or stdin, with a
   deterministic default id per line. *)
let spec_source cfg =
  match cfg.source with
  | Stdin ->
    let n = ref 0 in
    let rec next () =
      match In_channel.input_line stdin with
      | None -> None
      | Some line when String.trim line = "" -> next ()
      | Some line ->
        incr n;
        Some (Printf.sprintf "stdin-%d" !n, line)
    in
    next
  | Spool_dir dir ->
    let spool_file f =
      Filename.check_suffix f ".ndjson"
      || Filename.check_suffix f ".jsonl"
      || Filename.check_suffix f ".json"
    in
    (* The journal often lives inside the spool directory and would
       match the glob; identify it by inode so no alias of its path can
       ever be ingested as job specs (it grows while we run — reading
       it back would chase our own appends forever). *)
    let journal_ident =
      try
        let s = Unix.stat cfg.journal_path in
        Some (s.Unix.st_dev, s.Unix.st_ino)
      with Unix.Unix_error _ | Sys_error _ -> None
    in
    let is_journal f =
      match journal_ident with
      | None -> false
      | Some id -> (
        try
          let s = Unix.stat f in
          (s.Unix.st_dev, s.Unix.st_ino) = id
        with Unix.Unix_error _ | Sys_error _ -> false)
    in
    let files =
      Sys.readdir dir |> Array.to_list |> List.filter spool_file
      |> List.sort compare
      |> List.map (Filename.concat dir)
      |> List.filter (fun f -> not (is_journal f))
    in
    let remaining = ref files in
    let current : (string * In_channel.t * int ref) option ref = ref None in
    let rec next () =
      match !current with
      | None -> (
        match !remaining with
        | [] -> None
        | f :: rest ->
          remaining := rest;
          current := Some (Filename.remove_extension (Filename.basename f),
                           In_channel.open_text f, ref 0);
          next ())
      | Some (stem, ic, lineno) -> (
        match In_channel.input_line ic with
        | None ->
          In_channel.close ic;
          current := None;
          next ()
        | Some line ->
          incr lineno;
          if String.trim line = "" then next ()
          else Some (Printf.sprintf "%s-%d" stem !lineno, line))
    in
    next

(* --- the per-process context --------------------------------------- *)

type t = {
  cfg : config;
  tag : string;  (* log prefix *)
  policy : Transition.policy;
  journal : Journal.t;
  breaker : Breaker.t;
  cache : Store.t option Lazy.t;  (* only processes that run jobs open it *)
  prior : Journal.event list;  (* the journal replayed at start-up *)
  mutable emitted : Journal.event list;  (* this run's records, newest first *)
  known : (string, unit) Hashtbl.t;  (* accepted ids, this run or replayed *)
  counted : (string, unit) Hashtbl.t;  (* ids whose outcome this run reports *)
  next_spec : unit -> (string * string) option;
  mutable exhausted : bool;
  mutable accepted : int;
  mutable rejected : int;
  mutable breaker_trips : int;
  mutable journal_errors : int;
  mutable last_metrics_ns : int64;  (* 0 = never written *)
  trace_ring : string Queue.t;  (* per-job trace paths, oldest first *)
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.verbose then Printf.eprintf "%s: %s\n%!" t.tag s)
    fmt

let warn t fmt = Printf.ksprintf (Printf.eprintf "%s: warning: %s\n%!" t.tag) fmt

let make cfg ~tag ~journal ~prior ~next_spec =
  {
    cfg;
    tag;
    policy = { max_attempts = cfg.max_attempts; retry_base_ms = cfg.retry_base_ms };
    journal;
    breaker =
      Breaker.create ~threshold:cfg.breaker_threshold
        ~cooldown_s:cfg.breaker_cooldown_s ();
    (* an unusable cache directory degrades to an uncached service,
       not a startup failure — caching is an optimization, never a
       dependency *)
    cache =
      lazy
        (Option.bind cfg.cache_dir (fun dir ->
             try Some (Store.open_ ?max_mb:cfg.cache_max_mb ~dir ())
             with Sys_error msg ->
               Printf.eprintf "%s: warning: result cache disabled: %s\n%!" tag msg;
               None));
    prior;
    emitted = [];
    known = Hashtbl.create 64;
    counted = Hashtbl.create 64;
    next_spec;
    exhausted = false;
    accepted = 0;
    rejected = 0;
    breaker_trips = 0;
    journal_errors = 0;
    last_metrics_ns = 0L;
    trace_ring = Queue.create ();
  }

let breaker t = t.breaker
let policy t = t.policy
let exhausted t = t.exhausted
let history t = t.prior @ List.rev t.emitted

let worker cfg ~slot =
  make cfg
    ~tag:(Printf.sprintf "serve[w%d]" slot)
    ~journal:(Journal.open_ (Journal.shard_path cfg.journal_path slot))
    ~prior:[] ~next_spec:(fun () -> None)

let close t = Journal.close t.journal

let supervise cfg f =
  let at_least_1 name v =
    if v < 1 then invalid_arg (Printf.sprintf "serve: %s must be >= 1" name)
  in
  at_least_1 "max_attempts" cfg.max_attempts;
  at_least_1 "queue_cap" cfg.queue_cap;
  at_least_1 "metrics_interval_ms" cfg.metrics_interval_ms;
  at_least_1 "trace_keep" cfg.trace_keep;
  (* validate the spool before mkdir_p below can create any of its tree *)
  (match cfg.source with
  | Spool_dir dir when not (Sys.file_exists dir && Sys.is_directory dir) ->
    raise (Sys_error (dir ^ ": no such spool directory"))
  | Spool_dir _ | Stdin -> ());
  if not cfg.resume then
    List.iter
      (fun path ->
        if Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 then
          raise
            (Sys_error
               (path
              ^ ": journal already exists; pass --resume to continue it or \
                 remove it to start fresh")))
      (cfg.journal_path :: Journal.shards cfg.journal_path);
  List.iter Atomic_io.mkdir_p
    ([ cfg.out_dir; Filename.dirname cfg.journal_path ]
    @ Option.to_list cfg.trace_dir
    @ Option.to_list (Option.map Filename.dirname cfg.metrics_path));
  (* merged: a journal left by a fleet run has per-worker shards beside
     it; resuming in-process must still see every worker's records *)
  let prior = if cfg.resume then Journal.replay_merged cfg.journal_path else [] in
  Atomic.set drain_flag false;
  current_cancel := None;
  (* opened before the spec source looks for it in the spool *)
  let journal = Journal.open_ cfg.journal_path in
  let t = make cfg ~tag:"serve" ~journal ~prior ~next_spec:(spec_source cfg) in
  (* --metrics needs a live recorder for the whole daemon lifetime; if
     the caller did not install one (no --stats/--trace), own one. *)
  let own_recorder = cfg.metrics_path <> None && not (Telemetry.enabled ()) in
  if own_recorder then Telemetry.install (Telemetry.create ());
  let previous_handlers =
    List.map
      (fun signum ->
        (signum, Sys.signal signum (Sys.Signal_handle (fun _ -> request_drain ()))))
      [ Sys.sigint; Sys.sigterm ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (signum, h) -> Sys.set_signal signum h) previous_handlers;
      close t;
      if own_recorder then Telemetry.uninstall ())
    (fun () -> f t)

(* --- journal, give-up, admission ----------------------------------- *)

(* A lost journal record degrades resume fidelity (the job may re-run),
   never correctness: results are committed atomically and re-runs are
   byte-identical. So: bounded retries, then warn and move on. The
   record still counts in [history]. *)
let append t ev =
  t.emitted <- ev :: t.emitted;
  Telemetry.with_span "journal.append" @@ fun () ->
  let rec go n =
    match Journal.append t.journal ev with
    | () -> ()
    | exception Sys_error msg ->
      if n < 4 then go (n + 1)
      else begin
        t.journal_errors <- t.journal_errors + 1;
        Telemetry.incr "service.journal_errors";
        warn t "journal append failed: %s" msg
      end
  in
  go 0

let out_path t id ext = Filename.concat t.cfg.out_dir (id ^ ext)

let give_up t id ~error =
  append t (Journal.Give_up { id; error });
  (try Atomic_io.write_file (out_path t id ".err") (error ^ "\n")
   with Sys_error _ -> ());
  Telemetry.incr "service.jobs_failed";
  log t "[%s] FAILED permanently: %s" id error

let count_accepted t id =
  Hashtbl.replace t.counted id ();
  t.accepted <- t.accepted + 1;
  Telemetry.incr "service.jobs_accepted"

let admit_replayed t ~admit =
  let replayed = Journal.fold_state t.prior in
  let requeued = ref 0 in
  List.iter
    (fun (js : Journal.job_state) ->
      let id = js.job.Job.id in
      Hashtbl.replace t.known id ();
      if not js.terminal then
        match
          Transition.step t.policy
            { attempts = js.attempts; terminal = false }
            Transition.Resume
        with
        | _, Give_up { error; _ } ->
          Hashtbl.replace t.counted id ();
          give_up t id ~error
        | state, _ ->
          count_accepted t id;
          incr requeued;
          admit js.job state)
    replayed;
  if t.cfg.resume then
    log t "resume: %d journaled job(s), %d re-queued" (List.length replayed) !requeued

let reject_spec t ~default_id ~error =
  (* a rejected spec never became a job, so it is counted separately
     from jobs that ran and failed permanently *)
  t.rejected <- t.rejected + 1;
  (* A duplicate-id rejection carries the id of an already-accepted
     job; journaling give_up under that id would mark the legitimate,
     still-pending job terminal and --resume would silently drop it.
     Known ids keep their journal history untouched. *)
  if not (Hashtbl.mem t.known default_id) then
    append t (Journal.Give_up { id = default_id; error });
  Printf.eprintf "%s: rejected spec %s: %s\n%!" t.tag default_id error

let ingest t ~room ~admit =
  while (not t.exhausted) && (not (draining ())) && room () do
    match t.next_spec () with
    | None -> t.exhausted <- true
    | Some (default_id, line) -> (
      match Job.parse_line ~default_id line with
      | Error e -> reject_spec t ~default_id ~error:("invalid job spec: " ^ e)
      | Ok job when Hashtbl.mem t.known job.Job.id ->
        (* on resume a known id is simply already journaled: skip *)
        if not t.cfg.resume then
          reject_spec t ~default_id:job.Job.id
            ~error:(Printf.sprintf "duplicate job id %S" job.Job.id)
      | Ok job ->
        (* WAL order: the accept is durable before the job can run *)
        append t (Journal.Accept job);
        Hashtbl.replace t.known job.Job.id ();
        count_accepted t job.Job.id;
        admit job)
  done

(* --- per-job traces ------------------------------------------------ *)

(* Job ids come from spec files and may contain path separators; traces
   are flat files keyed by id, so squash anything path-hostile. *)
let safe_filename id =
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-') as c -> c | _ -> '_')
    id

(* Bounded trace ring: remember each written path once (a retried job
   overwrites its own file in place) and evict oldest-first beyond
   [trace_keep] so long daemon runs cannot grow the disk unboundedly. *)
let record_trace t path =
  if not (Queue.fold (fun seen p -> seen || String.equal p path) false t.trace_ring)
  then begin
    Queue.add path t.trace_ring;
    while Queue.length t.trace_ring > t.cfg.trace_keep do
      let victim = Queue.pop t.trace_ring in
      try Sys.remove victim with Sys_error _ -> ()
    done
  end

(* With [trace_dir] set, the attempt records into its own fresh
   recorder so long-lived daemons yield one readable Chrome-trace file
   per job instead of a single flat lifetime trace; the scalar
   aggregates (counters, gauges, histograms — O(metric names), never
   O(jobs)) are folded back into the long-lived recorder so a
   [--metrics] snapshot still reflects all job activity. *)
let traced t (job : Job.t) f =
  match t.cfg.trace_dir with
  | None -> f ()
  | Some dir ->
    let result, recording =
      Telemetry.collect @@ fun () ->
      Telemetry.with_span "job"
        ~attrs:[ ("id", job.Job.id); ("class", Job.class_of job) ]
        f
    in
    (match Telemetry.installed () with
    | Some outer -> Telemetry.merge_into ~into:outer recording
    | None -> ());
    let path = Filename.concat dir (safe_filename job.Job.id ^ ".trace.json") in
    (try
       Atomic_io.write_file path (Telemetry.chrome_trace_json recording);
       record_trace t path
     with Sys_error msg -> warn t "trace write failed: %s" msg);
    result

(* --- the attempt ---------------------------------------------------- *)

let fail t (job : Job.t) ~attempt ~error =
  let cls = Job.class_of job in
  if Breaker.failure t.breaker cls then begin
    t.breaker_trips <- t.breaker_trips + 1;
    log t "breaker for class %S tripped open" cls
  end;
  append t (Journal.Fail { id = job.Job.id; attempt; error })

let attempt t (job : Job.t) state =
  traced t job @@ fun () ->
  let id = job.Job.id in
  let state, _ = Transition.step t.policy state Transition.Start in
  let attempt = state.attempts in
  Telemetry.with_span "attempt" ~attrs:[ ("n", string_of_int attempt) ] @@ fun () ->
  append t (Journal.Start { id; attempt });
  if t.cfg.job_delay_ms > 0 then Unix.sleepf (Float.of_int t.cfg.job_delay_ms /. 1000.0);
  let cancel = Cancel.create () in
  current_cancel := Some cancel;
  (* the signal may have raced the register above *)
  if draining () then ignore (Cancel.cancel cancel (Cancel.Cancelled drain_cause));
  let or_default o d = match o with Some _ -> o | None -> d in
  let budget =
    Budget.create
      ?deadline_s:(or_default job.Job.timeout_s t.cfg.default_timeout_s)
      ?leaf_budget:(or_default job.Job.leaf_budget t.cfg.default_leaf_budget)
      ~cancel ()
  in
  let t0 = now_ns () in
  let result =
    match
      Inject.fire "service.worker";
      Telemetry.with_span "pipeline" ~attrs:[ ("class", Job.class_of job) ]
        (fun () -> Runner.execute ?cache:(Lazy.force t.cache) ~budget job)
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  current_cancel := None;
  let dur_ns = Int64.sub (now_ns ()) t0 in
  let cache =
    match result with
    | Ok (Ok (_, Some `Hit)) -> Some "hit"
    | Ok (Ok (_, Some `Miss)) -> Some "miss"
    | _ -> None
  in
  (* Cache-served jobs complete orders of magnitude faster; recording
     them into the same histogram would drag every latency quantile
     down and hide real pipeline regressions. They get their own
     series. *)
  if Telemetry.enabled () then
    Telemetry.observe
      (if cache = Some "hit" then "service.job_ns_cached" else "service.job_ns")
      (Int64.to_int dur_ns);
  let ms = Int64.to_float dur_ns /. 1e6 in
  let drain_cancelled =
    match Budget.stop_reason budget with
    | Some (Cancel.Cancelled c) -> String.equal c drain_cause
    | _ -> false
  in
  let event : Transition.event =
    match result with
    | Ok (Error (Runner.Invalid_input lines | Runner.Check_findings lines)) ->
      Finished (Invalid (String.concat "; " lines))
    | _ when drain_cancelled -> Interrupted
    | Ok (Ok (artifact, _)) -> (
      match
        Inject.fire_sys_error "service.result_io";
        Atomic_io.write_file (out_path t id ".out") artifact
      with
      | () ->
        Finished (Completed (Option.map Cancel.describe (Budget.stop_reason budget)))
      | exception Sys_error msg -> Finished (Failed ("result write failed: " ^ msg)))
    | Error error -> Finished (Failed error)
  in
  (* jitter deterministic in (seed, id, attempt) only — stable across
     restarts and independent of accept order *)
  let jitter () =
    Prng.float (Prng.split (Prng.create (t.cfg.seed lxor Hashtbl.hash (id, attempt)))) 1.0
  in
  let state, decision = Transition.step t.policy ~jitter state event in
  (match decision with
  | Commit reason ->
    let status = if reason = None then "ok" else "degraded" in
    append t (Journal.Done { id; attempt; status; reason; cache });
    Breaker.success t.breaker (Job.class_of job);
    (match reason with
    | Some r ->
      Telemetry.incr "service.jobs_degraded";
      log t "[%s] degraded in %.1f ms (%s)" id ms r
    | None ->
      Telemetry.incr "service.jobs_completed";
      log t "[%s] done in %.1f ms%s" id ms
        (if cache = Some "hit" then " (cache hit)" else ""))
  | Retry { error; _ } ->
    fail t job ~attempt ~error;
    Telemetry.incr "service.retries";
    log t "[%s] attempt %d failed (%s); retrying with backoff" id attempt error
  | Give_up { error; attempt_failed } ->
    if attempt_failed then fail t job ~attempt ~error;
    give_up t id ~error
  | Pending ->
    (* partial work from a drained attempt is discarded; the job re-runs
       (from scratch, deterministically) later. The interrupted record
       un-charges the journaled start, as [state] already does. *)
    append t (Journal.Interrupted { id; attempt });
    log t "[%s] interrupted by drain; left pending" id);
  (state, decision)

(* --- metrics snapshot and stats summary ---------------------------- *)

(* Unconditional snapshot: refresh the operational gauges, then commit
   the Prometheus exposition atomically so an external scraper reading
   the file mid-write still sees a complete previous snapshot. *)
let write_metrics t ~gauges =
  match (t.cfg.metrics_path, Telemetry.installed ()) with
  | None, _ | _, None -> ()
  | Some path, Some r ->
    gauges ();
    List.iter
      (fun (cls, name) ->
        let v = match name with "closed" -> 0 | "half_open" -> 1 | _ -> 2 in
        Telemetry.set ("service.breaker." ^ cls) v)
      (Breaker.states t.breaker);
    (try Atomic_io.write_file path (Telemetry.prometheus_text r)
     with Sys_error msg -> warn t "metrics write failed: %s" msg)

let maybe_write_metrics t ~gauges =
  if t.cfg.metrics_path <> None then begin
    let interval_ns = Int64.of_int (t.cfg.metrics_interval_ms * 1_000_000) in
    let now = now_ns () in
    if t.last_metrics_ns = 0L || Int64.sub now t.last_metrics_ns >= interval_ns then begin
      t.last_metrics_ns <- now;
      write_metrics t ~gauges
    end
  end

(* Terminal records of replayed-and-finished jobs are history, not this
   run's output: only counted ids are reported. The first terminal
   record after a job's accept wins — a crash-window duplicate re-run
   commits a byte-identical result, so which one is counted does not
   matter, and a give-up before the accept belongs to a rejected spec
   whose default id a later job reused. *)
let finish t ~gauges events =
  let drained = draining () in
  if drained then append t Journal.Drain;
  write_metrics t ~gauges;
  let retries events =
    List.fold_left
      (fun n -> function
        | Journal.Fail { id; attempt; _ }
          when attempt < t.cfg.max_attempts && Hashtbl.mem t.counted id -> n + 1
        | _ -> n)
      0 events
  in
  let seen = Hashtbl.create 64 and verdict = Hashtbl.create 64 in
  List.iter
    (function
      | Journal.Accept job -> Hashtbl.replace seen job.Job.id ()
      | (Journal.Done { id; _ } | Journal.Give_up { id; _ }) as ev
        when Hashtbl.mem seen id && not (Hashtbl.mem verdict id) ->
        Hashtbl.replace verdict id ev
      | _ -> ())
    events;
  let count p =
    Hashtbl.fold
      (fun id () n -> if p (Hashtbl.find_opt verdict id) then n + 1 else n)
      t.counted 0
  in
  let done_with s = function
    | Some (Journal.Done { status; _ }) -> String.equal status s
    | _ -> false
  in
  let completed = count (done_with "ok") and degraded = count (done_with "degraded") in
  let failed = count (function Some (Journal.Give_up _) -> true | _ -> false) in
  let pending = count Option.is_none in
  let retries = retries events - retries t.prior in
  log t "finished: %d ok, %d degraded, %d failed, %d retries%s" completed degraded
    failed retries
    (if drained then Printf.sprintf "; drained with %d pending" pending else "");
  {
    accepted = t.accepted;
    completed;
    degraded;
    failed;
    rejected_specs = t.rejected;
    retries;
    breaker_trips = t.breaker_trips;
    journal_errors = t.journal_errors;
    pending;
    drained;
    workers = 0;
    worker_deaths_signal = 0;
    worker_deaths_exit = 0;
    lease_steals = 0;
    worker_restarts = 0;
  }
