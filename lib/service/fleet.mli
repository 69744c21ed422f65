(** Multi-process fleet mode: [synth serve --workers N].

    {!run} converts the supervised service from a process into a
    supervised {e fleet}: the supervisor forks [config.workers]
    crash-isolated worker processes that claim jobs from a shared
    {!Lease} spool (lock-free, atomic-rename claims), each appending
    to its own {!Journal} shard ([<journal>.shard<slot>]), while the
    supervisor ingests specs, watches the children and never runs a
    pipeline itself — so no segfault, OOM kill or wedged allocation in
    a job can take the service down.

    {b Supervision.} Workers are monitored two ways: [waitpid]
    (catches any death — signal or exit) and per-slot heartbeat files
    (catches wedged or SIGSTOPped workers that are alive but not
    making progress). A dead worker's leases are stolen back to the
    pending queue — unless a lease's started-attempt count already
    exhausted [max_attempts], in which case the supervisor records the
    give-up, so a job that {e kills} workers terminates like any other
    failure instead of crash-looping the fleet. A worker whose
    heartbeat is older than [lease_expiry_ms] is SIGKILLed first
    (lease steal after heartbeat expiry). Crashed slots are refilled
    with exponential backoff.

    {b One lifecycle.} A worker runs each claimed job through the same
    {!Lifecycle.attempt} the in-process service uses — budgets,
    breaker, typed give-ups, backoff, the result-before-[done] commit —
    appending to its own journal shard. Fleet mode changes who runs a
    job and where it waits: a worker holds the job's lease through a
    retry's backoff and bumps the lease's attempt count before each
    attempt, so a steal after a crash still charges it. [--resume]
    replays the supervisor journal merged with every worker shard
    ({!Journal.replay_merged}); the final result set is byte-identical
    to an uninterrupted single-worker run, each result exactly once.

    {b Stats.} Worker-death causes are reported distinctly:
    [worker_deaths_signal] (killed), [worker_deaths_exit] (worker loop
    bug), [lease_steals] (heartbeat-expiry reclaims). Job outcomes come
    from the same summary as the in-process run, folded over the
    merged journal. [breaker_trips] is always 0 in fleet mode — each
    worker runs its own per-class breaker and trips are not journaled.

    {b Per-job traces.} With [trace_dir] set, each worker writes
    [<id>.trace.json] for the jobs it runs. The [trace_keep] ring is
    per worker process, so up to [workers * trace_keep] files remain.

    {b Telemetry} (supervisor process): counters [fleet.spawns],
    [fleet.restarts], [fleet.deaths_signal], [fleet.deaths_exit],
    [fleet.heartbeat_expiries], [fleet.lease_steals],
    [fleet.requeued]; gauges [fleet.workers_alive],
    [fleet.pending_depth], [fleet.claimed_depth] and per-slot
    [fleet.worker.<slot>] (0 dead, 1 alive, 2 heartbeat-expired) — all
    exported by [--metrics]; one explicit-track lane per worker slot
    in the Chrome trace (an [X] event per worker incarnation, an [i]
    mark per steal). Fault-injection sites: [fleet.claim],
    [fleet.heartbeat] (see {!Lease}), plus everything the workers
    inherit ([service.worker], [service.result_io], ...).

    The fleet's on-disk state lives under [<journal>.fleet/]; the pid
    map [<journal>.fleet/workers.json]
    ([{"supervisor":pid,"workers":{"<slot>":pid|0}}], rewritten
    atomically on every spawn and death) lets external chaos tooling
    target individual workers. *)

val run : Config.config -> Config.stats
(** Requires [config.workers >= 1] ([Invalid_argument] otherwise).
    Setup failures (unreadable spool, refused non-empty journal or
    shards without [resume]) raise [Sys_error] before any worker is
    forked; job failures never escape. SIGINT/SIGTERM drain
    gracefully: ingestion stops, workers get SIGTERM (each cancels its
    in-flight attempt cooperatively, journals [interrupted] and hands
    its lease back), stragglers are SIGKILLed after a bounded wait and
    their leases recovered. Must be called with no other domains
    running in the process (it forks) — the CLI calls it before any
    pipeline has touched the domain pool. *)
