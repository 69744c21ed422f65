module Telemetry = Bistpath_telemetry.Telemetry
include Config

let request_drain = Lifecycle.request_drain
let now_ns () = Monotonic_clock.now ()

type job_rec = {
  job : Job.t;
  mutable state : Transition.state;
  mutable next_ready_ns : int64;  (* backoff gate; 0 = ready now *)
  mutable enqueued_ns : int64;  (* last (re-)enqueue, for queue-wait latency *)
}

(* Pick the first queued job that is past its backoff gate and admitted
   by its class breaker; rotate everything else. Returns the wait (in
   seconds) until something could become runnable when nothing is. *)
let pick_runnable breaker queue =
  let n = Queue.length queue in
  let now = now_ns () in
  let min_wait = ref infinity in
  let found = ref None in
  for _ = 1 to n do
    let jr = Queue.pop queue in
    if !found <> None then Queue.add jr queue
    else begin
      let backoff_wait =
        if jr.next_ready_ns <= now then 0.0
        else Int64.to_float (Int64.sub jr.next_ready_ns now) /. 1e9
      in
      if backoff_wait > 0.0 then begin
        min_wait := Float.min !min_wait backoff_wait;
        Queue.add jr queue
      end
      else
        match Breaker.check breaker (Job.class_of jr.job) with
        | Breaker.Allow | Breaker.Probe -> found := Some jr
        | Breaker.Reject wait ->
          min_wait := Float.min !min_wait wait;
          Queue.add jr queue
    end
  done;
  match !found with
  | Some jr -> `Run jr
  | None -> if Queue.is_empty queue then `Empty else `Wait !min_wait

let run cfg =
  Lifecycle.supervise cfg @@ fun lc ->
  let queue = Queue.create () in
  let publish_depth () = Telemetry.set "service.queue_depth" (Queue.length queue) in
  let enqueue jr =
    jr.enqueued_ns <- now_ns ();
    Queue.add jr queue;
    publish_depth ()
  in
  let admit job state = enqueue { job; state; next_ready_ns = 0L; enqueued_ns = 0L } in
  Lifecycle.admit_replayed lc ~admit;
  (* an early first snapshot so scrapers find the file as soon as the
     daemon is up, not only after the first interval elapses *)
  Lifecycle.maybe_write_metrics lc ~gauges:publish_depth;
  let rec loop () =
    if not (Lifecycle.draining ()) then begin
      Lifecycle.ingest lc
        ~room:(fun () -> Queue.length queue < cfg.queue_cap)
        ~admit:(fun job -> admit job Transition.fresh);
      Lifecycle.maybe_write_metrics lc ~gauges:publish_depth;
      match pick_runnable (Lifecycle.breaker lc) queue with
      | `Run jr -> (
        publish_depth ();
        if Telemetry.enabled () then
          Telemetry.observe "service.queue_wait_ns"
            (Int64.to_int (Int64.sub (now_ns ()) jr.enqueued_ns));
        let state, decision = Lifecycle.attempt lc jr.job jr.state in
        jr.state <- state;
        match decision with
        | Transition.Retry { backoff_ns; _ } ->
          jr.next_ready_ns <- Int64.add (now_ns ()) backoff_ns;
          enqueue jr;
          loop ()
        | Transition.Pending -> enqueue jr (* drained mid-job: pending for resume *)
        | Transition.Commit _ | Transition.Give_up _ -> loop ())
      | `Empty ->
        (* ingest had no room? retry *)
        if not (Lifecycle.exhausted lc) then loop ()
      | `Wait w ->
        (* sleep in short slices so a drain signal is honoured promptly *)
        Unix.sleepf (Float.max 0.001 (Float.min w 0.05));
        loop ()
    end
  in
  loop ();
  Lifecycle.finish lc ~gauges:publish_depth (Lifecycle.history lc)
