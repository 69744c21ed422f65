module Telemetry = Bistpath_telemetry.Telemetry
module Inject = Bistpath_resilience.Inject

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when the queue gains tasks or on stop *)
  queue : (track:int -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable active : int;
  mutable max_active : int;
  mutable inflight : int;  (* batch tasks queued or running, across all batches *)
}

let jobs t = t.jobs

(* Runs a task's work on [track], before the task signals completion (so
   [run] returns with every sample landed). When a recorder is installed,
   the work's wall time feeds the parallel.chunk_ns histogram and
   parallel.busy_ns counter, and an explicit-track event pins it to this
   worker's Perfetto lane (track 1 = submitting domain, 2..jobs = spawned
   workers) so chunk-size skew is visible per worker. *)
let profiled ~track work =
  if Telemetry.enabled () then begin
    let t0 = Telemetry.now () in
    work ();
    let dur = Int64.sub (Telemetry.now ()) t0 in
    let d = Int64.to_int dur in
    Telemetry.incr "parallel.busy_ns" ~by:d;
    Telemetry.observe "parallel.chunk_ns" d;
    Telemetry.add_timed ~track "chunk" ~start_ns:t0 ~dur_ns:dur
  end
  else work ()

(* The telemetry mutex is a leaf lock, so sampling parallel.active while
   holding the pool mutex cannot deadlock (no telemetry code ever takes
   a pool lock). Must be called with t.mutex held. *)
let sample_active t = Telemetry.set "parallel.active" t.active

(* Workers and the submitting domain both pull from the same queue; a
   task is an already-wrapped closure that never raises (Run wraps user
   thunks and parks their exceptions for the submitter to re-raise). *)
let worker_loop t ~track =
  Mutex.lock t.mutex;
  let rec next () =
    if t.stop then Mutex.unlock t.mutex
    else
      match Queue.take_opt t.queue with
      | Some task ->
        t.active <- t.active + 1;
        if t.active > t.max_active then t.max_active <- t.active;
        sample_active t;
        Mutex.unlock t.mutex;
        task ~track;
        Mutex.lock t.mutex;
        t.active <- t.active - 1;
        sample_active t;
        next ()
      | None ->
        (* Parked while a batch still has tasks running elsewhere:
           starvation (too few chunks, or skewed ones). Parked with no
           batch in flight is the pool's natural resting state and is
           not counted. *)
        if t.inflight > 0 && Telemetry.enabled () then begin
          let t0 = Telemetry.now () in
          Condition.wait t.work t.mutex;
          Telemetry.incr "parallel.idle_ns"
            ~by:(Int64.to_int (Int64.sub (Telemetry.now ()) t0))
        end
        else Condition.wait t.work t.mutex;
        next ()
  in
  next ()

(* Beyond ~4x the core count extra domains only add scheduling pressure;
   treat larger BISTPATH_JOBS values as configuration mistakes. *)
let max_sensible_jobs () = 4 * Domain.recommended_domain_count ()

let default_jobs () =
  match Sys.getenv_opt "BISTPATH_JOBS" with
  | Some s -> (
    let cores = Domain.recommended_domain_count () in
    let cap = max_sensible_jobs () in
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= cap -> n
    | Some n when n < 1 ->
      Printf.eprintf "bistpath: BISTPATH_JOBS=%d is not positive; clamping to 1\n%!" n;
      1
    | Some n ->
      Printf.eprintf
        "bistpath: BISTPATH_JOBS=%d exceeds 4x the %d available cores; clamping to %d\n%!"
        n cores cap;
      cap
    | None ->
      Printf.eprintf
        "bistpath: BISTPATH_JOBS=%S is not an integer; using the core count (%d)\n%!" s
        cores;
      cores)
  | None -> Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some n ->
      if n < 1 then invalid_arg "Pool.create: jobs must be >= 1";
      n
    | None -> default_jobs ()
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
      active = 0;
      max_active = 0;
      inflight = 0;
    }
  in
  (* The submitting domain participates in [run], so a [jobs]-wide pool
     only spawns [jobs - 1] workers; [jobs = 1] spawns none at all. The
     submitter profiles as track 1, so spawned workers take 2..jobs. *)
  t.domains <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t ~track:(i + 2)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end
  else Mutex.unlock t.mutex

let run t thunks =
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  match thunks with
  | [] -> ()
  | _ when t.jobs = 1 -> List.iter (fun f -> f ()) thunks
  | _ ->
    let n = List.length thunks in
    let remaining = ref n in
    (* first exception in task order, so a failing batch re-raises the
       same exception the sequential loop would have *)
    let failure = ref None in
    let batch_done = Condition.create () in
    let task i f ~track =
      profiled ~track (fun () ->
          try
            Inject.fire "pool.worker";
            f ()
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.mutex;
            (match !failure with
            | Some (j, _, _) when j < i -> ()
            | _ -> failure := Some (i, e, bt));
            Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      decr remaining;
      t.inflight <- t.inflight - 1;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    t.inflight <- t.inflight + n;
    List.iteri (fun i f -> Queue.add (task i f) t.queue) thunks;
    Condition.broadcast t.work;
    (* Help-first waiting: the caller drains the queue alongside the
       workers — running any batch's tasks, which is what makes nested
       batches deadlock-free — then sleeps only on tasks already in
       flight on other threads. *)
    let steals = ref 0 in
    let rec drain () =
      match Queue.take_opt t.queue with
      | Some task ->
        incr steals;
        t.active <- t.active + 1;
        if t.active > t.max_active then t.max_active <- t.active;
        sample_active t;
        Mutex.unlock t.mutex;
        task ~track:1;
        Mutex.lock t.mutex;
        t.active <- t.active - 1;
        sample_active t;
        drain ()
      | None -> ()
    in
    drain ();
    (* The tail wait is the load-imbalance signal: the queue is empty
       but workers still hold chunks, so the submitter can only stall. *)
    if !remaining > 0 && Telemetry.enabled () then begin
      let t0 = Telemetry.now () in
      while !remaining > 0 do
        Condition.wait batch_done t.mutex
      done;
      let d = Int64.to_int (Int64.sub (Telemetry.now ()) t0) in
      Telemetry.incr "parallel.stall_ns" ~by:d;
      Telemetry.observe "parallel.stall_ns" d
    end
    else
      while !remaining > 0 do
        Condition.wait batch_done t.mutex
      done;
    let max_active = t.max_active in
    Mutex.unlock t.mutex;
    Telemetry.incr "parallel.tasks" ~by:n;
    if !steals > 0 then Telemetry.incr "parallel.steals" ~by:!steals;
    Telemetry.set "parallel.jobs" t.jobs;
    Telemetry.set "parallel.max_active" max_active;
    (match !failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ())

(* --- the shared process-wide pool ---------------------------------- *)

let requested : int option ref = ref None
let global : t option ref = ref None

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  (match !global with
  | Some p when p.jobs <> n ->
    shutdown p;
    global := None
  | _ -> ());
  requested := Some n

let configured_jobs () =
  match !requested with Some n -> n | None -> default_jobs ()

let get () =
  match !global with
  | Some p -> p
  | None ->
    let p = create ~jobs:(configured_jobs ()) () in
    global := Some p;
    p

let () = at_exit (fun () -> match !global with Some p -> shutdown p | None -> ())
