(** Configuration and result summary of [synth serve], shared by the
    in-process driver ({!Service.run}) and the forked fleet
    ({!Fleet.run}). {!Service} re-exports everything here. *)

type source =
  | Spool_dir of string
  | Stdin  (** read NDJSON job specs from standard input until EOF *)

type config = {
  source : source;
  out_dir : string;  (** per-job [<id>.out] / [<id>.err] artifacts *)
  journal_path : string;
  resume : bool;
      (** replay the journal and skip terminal jobs. When [false], a
          non-empty journal is refused ([Sys_error]) so two runs
          cannot interleave one history. *)
  max_attempts : int;  (** >= 1; retry budget per job *)
  retry_base_ms : float;  (** backoff base; attempt [n] waits
          [base * 2^(n-1)] scaled by jitter in [0.5, 1.5) *)
  breaker_threshold : int;  (** consecutive failures to trip a class *)
  breaker_cooldown_s : float;  (** open time before a half-open probe *)
  queue_cap : int;  (** >= 1; ingestion backpressure bound *)
  job_delay_ms : int;
      (** artificial pause before each attempt — a determinism aid for
          crash/drain tests and demos; 0 in production *)
  default_timeout_s : float option;  (** per-job deadline default *)
  default_leaf_budget : int option;
  seed : int;  (** root of the backoff jitter, drawn per job and attempt *)
  verbose : bool;  (** per-job progress lines on stderr *)
  metrics_path : string option;
      (** write a Prometheus text-exposition snapshot
          ({!Bistpath_telemetry.Telemetry.prometheus_text}) here,
          atomically (tmp+rename), refreshed at most every
          [metrics_interval_ms] plus once on shutdown — queue depth,
          per-class breaker states, retry counts, job-latency
          quantiles. If no telemetry recorder is installed the
          supervisor owns one for the daemon's lifetime. *)
  metrics_interval_ms : int;  (** >= 1; snapshot refresh period *)
  trace_dir : string option;
      (** write one Chrome-trace file per job ([<id>.trace.json],
          atomic rename) instead of relying on a single flat
          daemon-lifetime trace; per-job scalar aggregates still fold
          into the installed recorder *)
  trace_keep : int;
      (** >= 1; per-job trace files kept on disk — oldest are removed
          beyond this ring bound. The ring is per process: in fleet
          mode each worker keeps its own, so up to
          [workers * trace_keep] files remain *)
  cache_dir : string option;
      (** attach a content-addressed result cache
          ({!Bistpath_cache.Store}) rooted here: warm [run]/[rtl]/
          [pareto] jobs are served byte-identical without re-running
          the pipeline (their latency lands in the separate
          [service.job_ns_cached] histogram, and the journal's [Done]
          records carry [cache = hit/miss]). An unusable directory
          degrades to an uncached service with a warning — never a
          startup failure. [None] (the default) runs uncached. *)
  cache_max_mb : int option;
      (** on-disk cap for the result cache; oldest-used entries are
          evicted past it *)
  workers : int;
      (** 0 (the default) runs jobs in-process ({!Service.run});
          [workers >= 1] is fleet mode — {!Fleet.run} forks that many
          crash-isolated worker processes claiming jobs from a shared
          {!Lease} spool. The CLI dispatches on this field. *)
  heartbeat_interval_ms : int;  (** >= 1; fleet worker beat period *)
  lease_expiry_ms : int;
      (** >= 1; a fleet worker whose heartbeat is older than this is
          presumed wedged: it is killed and its leases are stolen back
          to the pending queue *)
}

val default_config : source -> config
(** [out_dir]/[journal_path] beside the spool (or under the current
    directory for [Stdin]); [max_attempts = 3]; [retry_base_ms = 100];
    [breaker_threshold = 3]; [breaker_cooldown_s = 1.0];
    [queue_cap = 64]; no default budgets; [seed = 0x5E41CE];
    [verbose = true]; no metrics snapshot ([metrics_interval_ms =
    1000]); no per-job traces ([trace_keep = 32]); no result cache;
    in-process ([workers = 0], [heartbeat_interval_ms = 250],
    [lease_expiry_ms = 5000]). *)

type stats = {
  accepted : int;  (** specs admitted to the queue this run *)
  completed : int;  (** jobs that committed a complete result *)
  degraded : int;  (** jobs that committed a best-so-far result *)
  failed : int;
      (** jobs that ran and failed permanently (retries exhausted,
          invalid input design, or static-check findings) — rejected
          specs are counted separately in [rejected_specs] *)
  rejected_specs : int;  (** unparsable/invalid NDJSON lines *)
  retries : int;  (** attempts re-queued with backoff *)
  breaker_trips : int;
      (** always 0 in fleet mode: each worker runs its own per-class
          breaker and trips are not journaled *)
  journal_errors : int;  (** appends lost after bounded retries *)
  pending : int;  (** jobs left unfinished (only after a drain) *)
  drained : bool;
  workers : int;  (** fleet width; 0 for an in-process run *)
  worker_deaths_signal : int;
      (** fleet workers that died by signal (SIGKILL, SIGSEGV, OOM
          kill); their leases were stolen back and re-run *)
  worker_deaths_exit : int;
      (** fleet workers that exited nonzero (a bug in the worker loop
          itself — never caused by a job, which becomes a typed
          failure record instead) *)
  lease_steals : int;
      (** leases reclaimed from workers whose heartbeat expired (a
          wedged or SIGSTOPped worker, killed and replaced) *)
  worker_restarts : int;  (** replacement workers forked, with backoff *)
}
