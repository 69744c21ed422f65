(** Supervised batch service: [synth serve] running jobs in-process.

    [run config] ingests NDJSON job specs (one per line) from a spool
    directory (every [.ndjson]/[.jsonl]/[.json] file, in sorted order)
    or stdin into a bounded in-memory queue — ingestion stops while
    the queue is at [queue_cap] and resumes as jobs drain
    (backpressure) — and executes the jobs one at a time in this
    process, each under its own {!Bistpath_resilience.Budget} (deadline
    / leaf quota from the spec or the configured defaults, plus a
    cancellation token the drain signal pulls).

    This module is the in-process driver only: a queue with a backoff
    gate and the per-class breaker in front of it. What happens to a
    job — attempt, commit, retry or give-up, journaling, resume,
    metrics and stats — is the lifecycle {!Fleet.run} shares, defined
    once in {!Lifecycle} and {!Transition}. A retried job waits in the
    queue, past its backoff gate, while other jobs run.

    Re-running after a hard kill with [resume = true] replays the
    journal, skips terminal jobs and re-executes the rest; because
    pipelines are deterministic, the final result set is byte-identical
    to an uninterrupted run, with each result appearing exactly once.
    SIGINT/SIGTERM (or {!request_drain}) drains gracefully: the run
    journals a [drain] checkpoint and returns with
    [stats.drained = true]; the CLI then exits 3 if work was left
    pending, per the degraded-exit protocol.

    Telemetry: the [service.*] counters and gauges documented in
    {!Bistpath_telemetry.Telemetry}. Fault-injection sites:
    [service.worker], [service.result_io], [service.journal]. *)

include module type of struct include Config end

val run : config -> stats
(** Returns when the spool is exhausted and every accepted job is
    terminal, or when a drain was requested. Signal handlers for
    SIGINT/SIGTERM are installed for the duration and restored on
    exit. Raises [Sys_error] only for setup errors (unreadable spool
    directory, refused journal) — never for job failures. *)

val request_drain : unit -> unit
(** What the signal handlers call: stop ingesting, cancel the
    in-flight job cooperatively, checkpoint and return. Exposed for
    embedding and tests. *)
