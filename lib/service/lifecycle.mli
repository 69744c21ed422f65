(** The job lifecycle of [synth serve], written once for both drivers.

    {!Service.run} (an in-process queue) and {!Fleet.run} (forked
    workers claiming {!Lease}s) differ only in where a job waits and
    which process runs it. Everything a job goes through lives here:
    start-up validation and journal refusal, replay admission on
    [--resume], spec ingestion and rejection, the attempt itself, the
    retry/give-up decision ({!Transition.step}), journal appends with
    bounded retry, the per-job trace writer, the [--metrics] snapshot
    and the stats summary.

    {b Crash isolation.} Any exception a job raises — bad input,
    injected fault, allocator bug — becomes a typed per-job record in
    the journal, never a daemon crash. Failed attempts retry with
    exponential backoff and deterministic jitter (a
    {!Bistpath_util.Prng} sample derived from the seed, the job id and
    the attempt number), capped at [max_attempts]; invalid input
    designs and check findings are deterministic failures that give up
    at once and do not feed the per-class {!Breaker}.

    {b Exactly-once.} Every transition is journaled with an fsync
    before the next step, and a result file is committed with
    tmp+rename+fsync {e before} its [done] record, which is the commit
    point. A lost journal record (after bounded retries) is counted in
    [journal_errors] and only ever causes a byte-identical re-run.

    {b Drain.} {!request_drain} stops ingestion and cancels the
    in-flight attempt cooperatively; its partial work is discarded and
    an [interrupted] record un-charges it, so the job stays pending
    for [--resume] with its retry budget intact. *)

val request_drain : unit -> unit
(** What the SIGINT/SIGTERM handlers call: set the process's drain
    flag and cancel the attempt in flight, if any. *)

val draining : unit -> bool

type t
(** One process's side of the lifecycle: its journal (the supervisor
    journal, or a fleet worker's shard), its per-class breaker and
    result cache, the run's counters and the records it emitted. *)

val supervise : Config.config -> (t -> 'a) -> 'a
(** [supervise config f] validates [config] ([Invalid_argument] for an
    out-of-range field; [Sys_error] for a missing spool directory, or
    for a non-empty journal or shard without [resume]), creates the
    output directories, replays the journal merged with its shards
    when resuming, opens it, installs a recorder of its own when
    [--metrics] needs one, and routes SIGINT/SIGTERM to
    {!request_drain} while [f] runs. Handlers, journal and recorder are
    restored or closed however [f] returns. *)

val worker : Config.config -> slot:int -> t
(** A fleet worker's context: appends to the journal shard of [slot];
    logs as [serve[w<slot>]]. No validation, no replay. *)

val close : t -> unit

val log : t -> ('a, unit, string, unit) format4 -> 'a
(** A progress line on stderr, when [config.verbose]. *)

val breaker : t -> Breaker.t
val policy : t -> Transition.policy

val admit_replayed : t -> admit:(Job.t -> Transition.state -> unit) -> unit
(** Replay admission: every journaled job becomes known, so spool
    re-reads cannot accept it twice; each non-terminal one is handed
    to [admit] with its replayed state, or given up when its retry
    budget ran out before the previous shutdown. *)

val ingest : t -> room:(unit -> bool) -> admit:(Job.t -> unit) -> unit
(** Read specs while the source lasts, no drain is requested and
    [room ()] holds (backpressure). An invalid spec or a duplicate id
    is rejected with a message and counted in [rejected_specs]; an
    accepted job is journaled before [admit] sees it. *)

val exhausted : t -> bool
(** The spec source has reached its end. *)

val attempt : t -> Job.t -> Transition.state -> Transition.state * Transition.decision
(** Run one attempt of a job whose charged state is given: journal its
    start, run {!Runner.execute} under the job's budget with drain
    cancellation registered, commit the artifact, then journal and
    account the {!Transition.step} decision — done, failure, give-up
    ([<id>.err]) or interrupted. With [config.trace_dir] set, the
    attempt is recorded to [<trace_dir>/<id>.trace.json], kept in a
    ring of [trace_keep] files per process. The driver carries out
    the returned decision: wait out a [Retry] backoff and run again,
    put back a [Pending] job. *)

val give_up : t -> string -> error:string -> unit
(** Journal a give-up for the job id and write its [<id>.err]. *)

val maybe_write_metrics : t -> gauges:(unit -> unit) -> unit
(** Refresh the [--metrics] snapshot if [metrics_interval_ms] has
    passed since the last one. [gauges] publishes the driver's own
    gauges first; the breaker states are published here. The file is
    replaced atomically, so a scraper never reads half a snapshot. *)

val history : t -> Journal.event list
(** The journal replayed at start-up followed by every record this
    process emitted since — including appends the disk lost. *)

val finish : t -> gauges:(unit -> unit) -> Journal.event list -> Config.stats
(** Journal the [drain] checkpoint when draining, write the final
    metrics snapshot, and summarize the run: the outcomes of the jobs
    this run admitted or re-queued, read from [events] — a journal
    history that extends the start-up replay ({!history}, or the
    merged fleet journal). The fleet-only fields are 0. *)
