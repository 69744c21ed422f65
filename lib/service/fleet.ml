module Atomic_io = Bistpath_util.Atomic_io
module Json = Bistpath_util.Json
module Telemetry = Bistpath_telemetry.Telemetry

let now_ns () = Monotonic_clock.now ()
let fleet_root (cfg : Config.config) = cfg.journal_path ^ ".fleet"

let workers_json (cfg : Config.config) =
  Filename.concat (fleet_root cfg) "workers.json"

let signal_name sg =
  if sg = Sys.sigkill then "SIGKILL"
  else if sg = Sys.sigterm then "SIGTERM"
  else if sg = Sys.sigint then "SIGINT"
  else if sg = Sys.sigsegv then "SIGSEGV"
  else if sg = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" sg

(* ==================================================================
   Worker process: claim / attempt / commit loop.

   Runs post-fork in its own address space; all state below is the
   child's private copy. What an attempt means is [Lifecycle.attempt],
   shared with the in-process service — fleet mode changes who runs a
   job, never what running it means. The driver part is the lease: it
   is bumped before each attempt, held through the backoff and
   released or handed back after.
   ================================================================== *)

(* sleep in short slices so a drain signal is honoured promptly *)
let sleep_or_drain seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec nap () =
    if not (Lifecycle.draining ()) then begin
      let left = deadline -. Unix.gettimeofday () in
      if left > 0.0 then begin
        Unix.sleepf (Float.min left 0.05);
        nap ()
      end
    end
  in
  nap ()

type wstate = { lc : Lifecycle.t; slot : int; wlease : Lease.t }

let return_quiet w (l : Lease.lease) =
  try Lease.return_ w.wlease ~slot:w.slot l
  with Sys_error msg ->
    (* the lease stays in claimed/<slot>/; the supervisor steals it
       back when it reaps this worker, so the job is not lost *)
    Printf.eprintf "serve[w%d]: warning: lease return failed: %s\n%!" w.slot msg

let rec claim_loop w =
  if not (Lifecycle.draining ()) then
    match Lease.claim w.wlease ~slot:w.slot with
    | Some l ->
      attempt_loop w l;
      claim_loop w
    | None ->
      if Lease.eof w.wlease && Lease.pending_count w.wlease = 0 then ()
      else begin
        Unix.sleepf 0.02;
        claim_loop w
      end

and attempt_loop w (l : Lease.lease) =
  if Lifecycle.draining () then return_quiet w l
  else
    match Breaker.check (Lifecycle.breaker w.lc) (Job.class_of l.job) with
    | Breaker.Reject wait ->
      sleep_or_drain (Float.max 0.001 (Float.min wait 0.05));
      attempt_loop w l
    | Breaker.Allow | Breaker.Probe -> (
      (* bump the held lease before the attempt starts, so a steal after
         a crash charges this attempt against the retry budget even when
         the start record never reached the shard *)
      (try Lease.update w.wlease ~slot:w.slot { l with attempts = l.attempts + 1 }
       with Sys_error _ -> ());
      let state, decision =
        Lifecycle.attempt w.lc l.job { Transition.fresh with attempts = l.attempts }
      in
      let l = { l with attempts = state.attempts } in
      match decision with
      | Transition.Commit _ | Transition.Give_up _ ->
        Lease.release w.wlease ~slot:w.slot l.job.Job.id
      | Transition.Pending -> return_quiet w l (* handed back uncharged *)
      | Transition.Retry { backoff_ns; _ } ->
        (* the lease stays held through the backoff — the heartbeat
           domain keeps beating, so a slow retry is never mistaken for a
           stall *)
        sleep_or_drain (Int64.to_float backoff_ns /. 1e9);
        attempt_loop w l)

let worker_main (cfg : Config.config) ~slot =
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Lifecycle.request_drain ()));
  let wlease = Lease.create ~root:(fleet_root cfg) ~slots:cfg.workers in
  let lc = Lifecycle.worker cfg ~slot in
  let w = { lc; slot; wlease } in
  (* first beat before the supervisor's expiry clock can see a gap *)
  (try Lease.beat wlease ~slot with Sys_error _ -> ());
  let hb_stop = Atomic.make false in
  let hb =
    Domain.spawn (fun () ->
        let interval = Float.of_int cfg.heartbeat_interval_ms /. 1000.0 in
        let warned = ref false in
        while not (Atomic.get hb_stop) do
          (try Lease.beat wlease ~slot
           with Sys_error msg ->
             if not !warned then begin
               warned := true;
               Printf.eprintf
                 "serve[w%d]: warning: heartbeat write failed: %s\n%!" slot msg
             end);
          let deadline = Unix.gettimeofday () +. interval in
          let rec nap () =
            if not (Atomic.get hb_stop) then begin
              let left = deadline -. Unix.gettimeofday () in
              if left > 0.0 then begin
                Unix.sleepf (Float.min left 0.05);
                nap ()
              end
            end
          in
          nap ()
        done)
  in
  let code =
    match claim_loop w with
    | () -> 0
    | exception e ->
      Printf.eprintf "serve[w%d]: fatal: %s\n%!" slot (Printexc.to_string e);
      1
  in
  Atomic.set hb_stop true;
  (try Domain.join hb with _ -> ());
  Lifecycle.close lc;
  if cfg.verbose then Printf.eprintf "serve[w%d]: exiting\n%!" slot;
  (* _exit, not exit: the parent's at_exit sinks (--stats/--trace
     writers) must not run again in the child *)
  Unix._exit code

(* ==================================================================
   Supervisor: fork, watch, steal, restart. Never runs a pipeline.
   ================================================================== *)

type slot_info = {
  mutable pid : int;  (* 0 = not running *)
  mutable spawn_wall : float;  (* heartbeat grace anchor *)
  mutable spawn_ns : int64;  (* trace-lane start *)
  mutable stall_killed : bool;  (* we SIGKILLed it for heartbeat expiry *)
  mutable crash_streak : int;  (* consecutive crashes; gates backoff *)
  mutable next_spawn_ns : int64;
  mutable ever_spawned : bool;
}

type sup = {
  scfg : Config.config;
  lc : Lifecycle.t;
  slease : Lease.t;
  slots : slot_info array;
  mutable s_deaths_signal : int;
  mutable s_deaths_exit : int;
  mutable s_steals : int;
  mutable s_restarts : int;
  mutable eof_marked : bool;
}

(* A lease that cannot be published is a job that can never run: record
   the give-up so the run still terminates with a truthful journal. *)
let submit_retry sup (l : Lease.lease) =
  let rec go n =
    match Lease.submit sup.slease l with
    | () -> ()
    | exception Sys_error msg ->
      if n < 4 then go (n + 1)
      else
        Lifecycle.give_up sup.lc l.Lease.job.Job.id
          ~error:("could not publish lease: " ^ msg)
  in
  go 0

let alive sup =
  Array.fold_left (fun acc s -> if s.pid <> 0 then acc + 1 else acc) 0 sup.slots

let write_workers sup =
  let entries =
    Array.to_list
      (Array.mapi
         (fun i s -> (string_of_int i, Json.Num (float_of_int s.pid)))
         sup.slots)
  in
  let json =
    Json.Obj
      [
        ("supervisor", Json.Num (float_of_int (Unix.getpid ())));
        ("workers", Json.Obj entries);
      ]
  in
  try Atomic_io.write_file (workers_json sup.scfg) (Json.to_string json ^ "\n")
  with Sys_error _ -> ()

let gauges sup () =
  Telemetry.set "fleet.pending_depth" (Lease.pending_count sup.slease);
  Telemetry.set "fleet.claimed_depth" (Lease.held_count sup.slease);
  Telemetry.set "fleet.workers_alive" (alive sup)

(* Recover a dead worker's leases. A job whose started attempts already
   exhausted the retry budget took its killer down with its final
   attempt: give up instead of requeueing, so a worker-killing job
   terminates like any other failure instead of crash-looping the
   fleet. Returns how many leases were recovered. *)
let steal sup slot ~cause =
  let held = Lease.held sup.slease ~slot in
  List.iter
    (fun (l : Lease.lease) ->
      let id = l.job.Job.id in
      match
        Transition.step (Lifecycle.policy sup.lc)
          { Transition.fresh with attempts = l.attempts }
          (Transition.Worker_died cause)
      with
      | _, Transition.Give_up { error; _ } ->
        Lease.discard sup.slease ~slot id;
        Lifecycle.give_up sup.lc id ~error
      | _ ->
        Lease.requeue sup.slease ~slot id;
        Telemetry.incr "fleet.requeued";
        Lifecycle.log sup.lc "worker %d: requeued job %s after %s" slot id cause)
    held;
  List.length held

let crashed sup slot =
  let s = sup.slots.(slot) in
  s.crash_streak <- s.crash_streak + 1;
  let backoff_ms =
    sup.scfg.retry_base_ms *. Float.of_int (1 lsl min (s.crash_streak - 1) 6)
  in
  s.next_spawn_ns <- Int64.add (now_ns ()) (Int64.of_float (backoff_ms *. 1e6))

let spawn sup slot =
  let s = sup.slots.(slot) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
    try worker_main sup.scfg ~slot
    with e ->
      (try
         Printf.eprintf "serve[w%d]: fatal during startup: %s\n%!" slot
           (Printexc.to_string e)
       with _ -> ());
      Unix._exit 1)
  | pid ->
    s.pid <- pid;
    s.spawn_wall <- Unix.gettimeofday ();
    s.spawn_ns <- now_ns ();
    s.stall_killed <- false;
    s.ever_spawned <- true;
    Telemetry.incr "fleet.spawns";
    Telemetry.set (Printf.sprintf "fleet.worker.%d" slot) 1;
    write_workers sup;
    Lifecycle.log sup.lc "worker %d started (pid %d)" slot pid

let on_death sup slot status =
  let s = sup.slots.(slot) in
  let pid = s.pid in
  s.pid <- 0;
  Telemetry.set (Printf.sprintf "fleet.worker.%d" slot) 0;
  let cause =
    match status with
    | Unix.WEXITED 0 -> "clean exit"
    | Unix.WEXITED c -> Printf.sprintf "exit %d" c
    | Unix.WSIGNALED sg -> signal_name sg
    | Unix.WSTOPPED sg -> Printf.sprintf "stop (%s)" (signal_name sg)
  in
  if Telemetry.enabled () then
    Telemetry.add_timed ~track:(slot + 2) "worker"
      ~attrs:
        [
          ("slot", string_of_int slot);
          ("pid", string_of_int pid);
          ("cause", cause);
        ]
      ~start_ns:s.spawn_ns
      ~dur_ns:(Int64.sub (now_ns ()) s.spawn_ns);
  (match status with
  | Unix.WEXITED 0 -> s.crash_streak <- 0
  | Unix.WEXITED _ ->
    sup.s_deaths_exit <- sup.s_deaths_exit + 1;
    Telemetry.incr "fleet.deaths_exit";
    crashed sup slot
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
    (* a kill we sent ourselves for a stale heartbeat is accounted as a
       heartbeat expiry + lease steal, not as a worker death *)
    if not s.stall_killed then begin
      sup.s_deaths_signal <- sup.s_deaths_signal + 1;
      Telemetry.incr "fleet.deaths_signal"
    end;
    crashed sup slot);
  let stolen = steal sup slot ~cause in
  if s.stall_killed then begin
    sup.s_steals <- sup.s_steals + stolen;
    if stolen > 0 then begin
      Telemetry.incr ~by:stolen "fleet.lease_steals";
      Telemetry.instant "fleet.steal"
        ~attrs:[ ("slot", string_of_int slot); ("leases", string_of_int stolen) ]
    end
  end;
  if cause <> "clean exit" then
    Lifecycle.log sup.lc "worker %d (pid %d) died (%s); %d lease(s) recovered" slot pid
      cause
      stolen;
  write_workers sup

let find_slot sup pid =
  let found = ref None in
  Array.iteri (fun i s -> if s.pid = pid then found := Some i) sup.slots;
  !found

let rec reap sup =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | 0, _ -> ()
  | pid, status ->
    (match find_slot sup pid with
    | Some slot -> on_death sup slot status
    | None -> ());
    reap sup
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap sup

(* A worker that is alive per waitpid but silent per heartbeat is
   wedged (or SIGSTOPped): SIGKILL it — the reap that follows observes
   [stall_killed] and steals its leases. The spawn time anchors the
   grace period so a worker is never killed for a beat it has not had
   time to write. *)
let check_heartbeats sup =
  let expiry = Float.of_int sup.scfg.lease_expiry_ms /. 1000.0 in
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun slot s ->
      if s.pid <> 0 && not s.stall_killed then begin
        let last =
          match Lease.beat_mtime sup.slease ~slot with
          | Some m -> Float.max m s.spawn_wall
          | None -> s.spawn_wall
        in
        if now -. last > expiry then begin
          s.stall_killed <- true;
          Telemetry.incr "fleet.heartbeat_expiries";
          Telemetry.set (Printf.sprintf "fleet.worker.%d" slot) 2;
          Lifecycle.log sup.lc
            "worker %d (pid %d): heartbeat expired (%.1fs silent); killing and \
             stealing its leases"
            slot s.pid (now -. last);
          try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end
      end)
    sup.slots

let respawn sup =
  if not (Lifecycle.draining ()) then
    Array.iteri
      (fun slot s ->
        if s.pid = 0 then begin
          let work_remains =
            (not (Lifecycle.exhausted sup.lc)) || Lease.pending_count sup.slease > 0
          in
          if work_remains && Int64.compare (now_ns ()) s.next_spawn_ns >= 0
          then begin
            if s.ever_spawned then begin
              sup.s_restarts <- sup.s_restarts + 1;
              Telemetry.incr "fleet.restarts"
            end;
            spawn sup slot
          end
        end)
      sup.slots

let ingest sup =
  if not (Lifecycle.exhausted sup.lc) then begin
    let depth = ref (Lease.pending_count sup.slease + Lease.held_count sup.slease) in
    Lifecycle.ingest sup.lc
      ~room:(fun () -> !depth < sup.scfg.queue_cap)
      ~admit:(fun job ->
        submit_retry sup { Lease.job; attempts = 0 };
        incr depth)
  end;
  if Lifecycle.exhausted sup.lc && not sup.eof_marked then begin
    sup.eof_marked <- true;
    try Lease.mark_eof sup.slease with Sys_error _ -> ()
  end

let shutdown sup ~drain =
  if drain then
    Array.iter
      (fun s ->
        if s.pid <> 0 then
          try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ())
      sup.slots;
  let grace =
    Float.max 5.0 (2.0 *. Float.of_int sup.scfg.lease_expiry_ms /. 1000.0)
  in
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait escalated =
    reap sup;
    if alive sup > 0 then
      if (not escalated) && Unix.gettimeofday () > deadline then begin
        Array.iter
          (fun s ->
            if s.pid <> 0 then begin
              (* a worker that ignored the drain for this long is
                 wedged: recover its leases as a steal, not a death *)
              s.stall_killed <- true;
              try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()
            end)
          sup.slots;
        wait true
      end
      else begin
        Unix.sleepf 0.02;
        wait escalated
      end
  in
  wait false

let run (cfg : Config.config) =
  if cfg.workers < 1 then invalid_arg "Fleet.run: workers must be >= 1";
  if cfg.heartbeat_interval_ms < 1 then
    invalid_arg "Fleet.run: heartbeat_interval_ms must be >= 1";
  if cfg.lease_expiry_ms < 1 then
    invalid_arg "Fleet.run: lease_expiry_ms must be >= 1";
  Lifecycle.supervise cfg @@ fun lc ->
  let slease = Lease.create ~root:(fleet_root cfg) ~slots:cfg.workers in
  (* leftover leases from a previous incarnation are rebuilt from the
     journal below — the journal, not the lease directory, is truth *)
  Lease.reset slease;
  let sup =
    {
      scfg = cfg;
      lc;
      slease;
      slots =
        Array.init cfg.workers (fun _ ->
            {
              pid = 0;
              spawn_wall = 0.0;
              spawn_ns = 0L;
              stall_killed = false;
              crash_streak = 0;
              next_spawn_ns = 0L;
              ever_spawned = false;
            });
      s_deaths_signal = 0;
      s_deaths_exit = 0;
      s_steals = 0;
      s_restarts = 0;
      eof_marked = false;
    }
  in
  Lifecycle.admit_replayed lc ~admit:(fun job (state : Transition.state) ->
      submit_retry sup { Lease.job; attempts = state.attempts });
  write_workers sup;
  Lifecycle.maybe_write_metrics lc ~gauges:(gauges sup);
  for slot = 0 to cfg.workers - 1 do
    spawn sup slot
  done;
  let rec loop () =
    reap sup;
    if not (Lifecycle.draining ()) then begin
      ingest sup;
      check_heartbeats sup;
      respawn sup;
      Lifecycle.maybe_write_metrics lc ~gauges:(gauges sup);
      if
        Lifecycle.exhausted lc
        && Lease.pending_count sup.slease = 0
        && Lease.held_count sup.slease = 0
      then ()
      else begin
        Unix.sleepf 0.01;
        loop ()
      end
    end
  in
  loop ();
  shutdown sup ~drain:(Lifecycle.draining ());
  write_workers sup;
  Lifecycle.log lc "fleet: %d worker death(s), %d steal(s), %d restart(s)"
    (sup.s_deaths_signal + sup.s_deaths_exit)
    sup.s_steals sup.s_restarts;
  (* job outcomes live scattered across the supervisor journal and every
     worker shard; the merged replay is the one place they all meet *)
  let stats =
    Lifecycle.finish lc ~gauges:(gauges sup) (Journal.replay_merged cfg.journal_path)
  in
  {
    stats with
    workers = cfg.workers;
    worker_deaths_signal = sup.s_deaths_signal;
    worker_deaths_exit = sup.s_deaths_exit;
    lease_steals = sup.s_steals;
    worker_restarts = sup.s_restarts;
  }
