type source = Spool_dir of string | Stdin

type config = {
  source : source;
  out_dir : string;
  journal_path : string;
  resume : bool;
  max_attempts : int;
  retry_base_ms : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  queue_cap : int;
  job_delay_ms : int;
  default_timeout_s : float option;
  default_leaf_budget : int option;
  seed : int;
  verbose : bool;
  metrics_path : string option;
  metrics_interval_ms : int;
  trace_dir : string option;
  trace_keep : int;
  cache_dir : string option;
  cache_max_mb : int option;
  workers : int;
  heartbeat_interval_ms : int;
  lease_expiry_ms : int;
}

let default_config source =
  let base = match source with Spool_dir d -> d | Stdin -> "." in
  {
    source;
    out_dir = Filename.concat base "results";
    journal_path = Filename.concat base "journal.ndjson";
    resume = false;
    max_attempts = 3;
    retry_base_ms = 100.0;
    breaker_threshold = 3;
    breaker_cooldown_s = 1.0;
    queue_cap = 64;
    job_delay_ms = 0;
    default_timeout_s = None;
    default_leaf_budget = None;
    seed = 0x5E41CE;
    verbose = true;
    metrics_path = None;
    metrics_interval_ms = 1000;
    trace_dir = None;
    trace_keep = 32;
    cache_dir = None;
    cache_max_mb = None;
    workers = 0;
    heartbeat_interval_ms = 250;
    lease_expiry_ms = 5000;
  }

type stats = {
  accepted : int;
  completed : int;
  degraded : int;
  failed : int;
  rejected_specs : int;
  retries : int;
  breaker_trips : int;
  journal_errors : int;
  pending : int;
  drained : bool;
  workers : int;
  worker_deaths_signal : int;
  worker_deaths_exit : int;
  lease_steals : int;
  worker_restarts : int;
}
