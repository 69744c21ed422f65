(** Pipeline telemetry: hierarchical timed spans, named counters and
    gauges, and pluggable export sinks.

    The synthesis pipeline is instrumented with {!with_span}, {!incr} and
    {!set} calls throughout [Flow.run], the allocators and the gate-level
    simulators. When no recorder is installed (the default) every
    instrumentation point costs a single global read and branch, so
    leaving the calls in hot paths is free in practice. Installing a
    {!type:t} recorder (see {!install} / {!collect}) captures a trace that
    can then be exported as a human-readable summary table
    ({!summary_table}) or a Chrome trace-event file
    ({!chrome_trace_json}) loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto} for flamegraph views.

    {1 Counter name registry}

    Counters are monotonic within one recording; gauges ({!set}) hold the
    last written value. The pipeline emits the following names:

    - [clique.iterations] — merge rounds of
      [Clique_partition.greedy] (module assignment, CP register
      allocation).
    - [clique.merges] — super-vertex merges actually performed.
    - [regalloc.steps] — coloring steps of the testable register
      allocator (one per conflict-graph vertex).
    - [regalloc.fresh_registers] — steps that had to open a new register.
    - [regalloc.sd_evals] — sharing-degree evaluations while ranking
      candidate registers.
    - [regalloc.cbilbo_avoided] — candidate registers discarded because
      the merge would create a Lemma-2 CBILBO situation.
    - [interconnect.orientations] — operand-orientation assignments
      scored by the interconnect optimizer.
    - [bist.units] — functional units considered by the BIST allocator.
    - [bist.embedding_candidates] — I-path embeddings enumerated across
      all units before the search.
    - [bist.embeddings_explored] — candidate embeddings applied during
      the branch-and-bound search (search nodes).
    - [bist.cbilbos_avoided] — enumerated CBILBO-requiring embeddings the
      chosen solution managed to avoid.
    - [pareto.leaves] — embedding combinations the Pareto sweep
      walked ([Bistpath_bist.Pareto.explore]), the same count as the
      budget's leaves.
    - [pareto.in_bound] — walked combinations costed within the
      sweep's area slack bound (each also gets a session count).
    - [pareto.capped] — sweeps whose fixed 20,000-leaf cap cut the
      walk (1 per such sweep; the cap does not trip the budget).
    - [fault_sim.faults] — faults submitted to fault simulation.
    - [fault_sim.events] — fault-pattern simulation events
      (faults x patterns).
    - [podem.backtracks] — PODEM decision backtracks.
    - [podem.tests] / [podem.untestable] / [podem.aborts] — PODEM
      per-fault outcomes.
    - [bist_sim.patterns] — test patterns applied by the BIST session
      simulator.
    - [bist_sim.faults] — faults graded by the BIST session simulator.
    - [bist_sim.gate_evals] — gate evaluations in the BIST session
      simulator's faulty passes: each fault's fanout-cone size summed
      over the 64-pattern chunks it was re-evaluated on.
    - [resilience.deadline_hits] — budgets whose wall-clock deadline
      tripped ([Bistpath_resilience.Budget], first trip per budget).
    - [resilience.injected] — fault-injection shots that fired
      ([Bistpath_resilience.Inject]).
    - [service.jobs_accepted] — job specs admitted to the serve queue
      ([Bistpath_service.Service]).
    - [service.jobs_completed] — jobs that produced a complete result.
    - [service.jobs_degraded] — jobs whose own budget tripped; their
      best-so-far result was still written.
    - [service.jobs_failed] — jobs that ran and ended in a typed
      failure record (retries exhausted, invalid input design, or
      static-check findings). Rejected specs that never became jobs
      are not counted here.
    - [service.retries] — failed attempts re-queued with backoff.
    - [service.breaker_trips] — circuit breakers that transitioned
      from closed (or half-open) to open.
    - [service.journal_errors] — write-ahead journal appends that
      failed even after bounded retries (the daemon degrades to
      in-memory state rather than crashing).
    - [check.rules_run] — static-analysis rules evaluated to
      completion by [Bistpath_check.Check.run].
    - [check.rules_crashed] — rules that raised; each is degraded to a
      per-rule [CHK000] finding instead of failing the check run.
    - [check.rules_skipped] — rules not evaluated because the budget
      tripped before they were scheduled.
    - [check.findings] — findings reported by rules (before
      suppression).
    - [check.suppressed] — findings hidden by per-rule suppression
      ([--suppress]).
    - [rtl.parse_errors] — error-severity diagnostics accumulated by
      the Verilog parse-back front end ([Bistpath_rtl.Parser.parse]),
      including injected [rtl.parse] faults.
    - [rtl.slot_trees] — per-slot register-cell connections
      (cells x input ports x slots, both netlists) a structural match
      compared ([Bistpath_rtl.Netlist.differences]).
    - [rtl.nodes] — distinct hash-consed nodes those connections
      share, counted once per structural match.
    - [rtl.refine_rounds] — colour-refinement rounds run to the fixed
      point ([Bistpath_rtl.Netlist.refine]).
    - [absint.solves] — abstract-interpretation fixpoint solves
      completed ([Bistpath_absint.Absint.solve_dfg] /
      [solve_control]).
    - [absint.iterations] — total fixpoint passes across all solves.
    - [absint.widenings] — abstract values widened to break an
      ascending chain (loop write-back kernels).
    - [telemetry.dropped_samples] — gauge samples / instants / track
      events discarded because a bounded sample stream hit its cap
      (the scalar aggregates keep absorbing).
    - [cache.hit] / [cache.miss] — result-cache lookups that
      found / did not find a reusable entry, in aggregate; the
      per-stage breakdown lands in [cache.hit.<stage>] /
      [cache.miss.<stage>] ([schedule], [alloc], [interconnect],
      [bist], [rtl], [report]).
    - [cache.store] — entries committed to the result cache
      ([Bistpath_cache.Store]).
    - [cache.corrupt] — entries whose integrity header or payload
      failed verification on read; each is deleted and counted as a
      miss, never a crash.
    - [cache.evicted] — entries removed by LRU garbage collection
      (explicit [gc] or the automatic post-[put] pass under a size
      cap).
    - [cache.io_errors] — cache reads/writes that failed with
      [Sys_error] (including injected [cache.io] faults); a failed
      read degrades to a miss, a failed write to a skipped store.
    - [fleet.spawns] — worker processes forked by the fleet supervisor
      ([Bistpath_service.Fleet]), initial and replacement alike.
    - [fleet.restarts] — replacement forks only (a slot whose previous
      worker died).
    - [fleet.deaths_signal] — workers reaped after a genuine signal
      death (SIGKILL, OOM, segfault). Supervisor-initiated kills
      (heartbeat expiry, shutdown escalation) are counted under
      [fleet.heartbeat_expiries] / steals instead.
    - [fleet.deaths_exit] — workers that exited nonzero: a worker-loop
      error, not a job failure (jobs failing is [service.jobs_failed]
      in the worker's own recorder).
    - [fleet.heartbeat_expiries] — workers presumed wedged (no
      heartbeat within the lease expiry) and killed by the supervisor.
    - [fleet.lease_steals] — leases recovered from dead or expired
      workers and re-queued or terminally failed.
    - [fleet.requeued] — stolen leases whose retry budget allowed a
      re-run (the re-queued subset of [fleet.lease_steals]).

    {1 Histogram registry}

    Latency distributions recorded via {!observe} (log-bucket
    {!Histogram}s; read back through {!summary_table} and the
    {!prometheus_text} quantiles):

    - [check.rule_ns] — per-rule static-analysis evaluation time.
    - [absint.solve_ns] — per-solve abstract-interpretation fixpoint
      time (both solvers).
    - [rtl.verify_ns] — end-to-end parse-back verification time
      ([Bistpath_rtl.Equiv.verify]: parse, elaborate, structural
      match, simulation cross-check).
    - [service.job_ns] — per-attempt job execution wall time
      (cache-served attempts excluded — see below).
    - [service.job_ns_cached] — wall time of attempts whose artifact
      was served from the result cache. Kept as its own series so the
      orders-of-magnitude-faster cache hits cannot drag the pipeline
      latency quantiles down and mask real regressions.
    - [service.queue_wait_ns] — time a job waited in the serve queue
      (or backoff) before its attempt started.

    Gauges set by [Flow.run]: [regs.allocated], [muxes.allocated],
    [bist.delta_gates], [sessions.count]. The CLI sets
    [resilience.degraded] to 1 when a run ends degraded (exit code 3).
    Gauges set by the service layer: [service.queue_depth]
    (jobs waiting or retrying), [service.breaker_open] (job classes
    currently failing fast) and — in the [--metrics] snapshot —
    [service.breaker.<class>] (0 closed, 1 half-open, 2 open). Gauges
    set by the fleet supervisor: [fleet.workers_alive],
    [fleet.pending_depth] / [fleet.claimed_depth] (spool occupancy)
    and [fleet.worker.<slot>] (0 dead, 1 alive, 2 heartbeat-expired).

    Instant events from the fleet supervisor: [fleet.steal] with
    [slot] and [leases] attributes, emitted when a heartbeat-expired
    worker's leases are recovered.

    Instant events ({!instant}; ["i"]-phase marks in the Chrome
    trace): [budget.trip] with a [reason] attribute, emitted the
    moment a {!Bistpath_resilience.Budget} trips.

    Span names emitted by [Flow.run]: a root [flow] span containing
    [regalloc], [interconnect], [bist_alloc] and [sessions], one each.
    [Module_assign.single_function] emits a [massign] span: the
    clique-partition module assignment of a DFG file or behavioural
    program, run while the design loads, before any [flow] span.
    [Bist_sim.run] opens a [gatelevel.coverage] span around one
    [bist_sim] span per graded unit, with a [unit] attribute naming it;
    [synth atpg] wraps each unit's [Podem.classify_all] in a [podem]
    span with the same attribute. [Pareto.explore] opens a [pareto]
    span, [Verilog.emit] an [rtl.emit] span.

    {1 Domain safety}

    All instrumentation points ({!with_span}, {!incr}, {!set},
    {!add_timed}) and recorder reads are serialized by one process-wide
    mutex, so another domain (the fleet supervisor's heartbeat domain)
    may record concurrently with the main domain without crashing the
    recorder or losing counts. Spans, however, form a single stack:
    open and close spans from one domain at a time (in practice, only
    the main domain opens spans). When no recorder is installed the
    fast path remains a lock-free global read and branch. *)

type attr = string * string

(** Fixed log-bucket latency histograms.

    Power-of-two buckets: bucket 0 holds the value 0 (negative
    observations clamp to 0); bucket [k >= 1] holds the closed range
    [[2^(k-1), 2^k - 1]]. The layout is data-independent, so any two
    histograms merge bucket-for-bucket, and an observation is O(1)
    with no allocation. Quantiles are estimated as the upper bound of
    the bucket holding the rank-[ceil (q * count)] smallest sample,
    clamped to the observed [[min, max]] — a single-sample histogram
    therefore answers every quantile exactly, and estimates never
    leave the observed range. A standalone value type: also usable
    outside a recorder. Not domain-safe on its own (the recorder's
    mutex serializes the {!observe}-by-name instrumentation path). *)
module Histogram : sig
  type t

  val create : unit -> t
  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int

  val min_value : t -> int
  (** Smallest observation (after clamping); 0 when empty. *)

  val max_value : t -> int
  (** Largest observation; 0 when empty. *)

  val quantile : t -> float -> int
  (** [quantile t q] for [q] in [[0, 1]] (clamped). 0 when empty. *)

  val merge_into : into:t -> t -> unit
  (** Add [src]'s counts/sum/extrema into [into]; [src] unchanged. *)

  val bucket_of : int -> int
  (** Index of the bucket a value lands in. *)

  val bucket_upper : int -> int
  (** Inclusive upper bound of bucket [k] ([max_int] for the last). *)

end

type span = private {
  name : string;
  attrs : attr list;
  depth : int;  (** 0 for root spans *)
  parent : int option;  (** index of the enclosing span, in {!spans} order *)
  start_ns : int64;  (** monotonic clock at open *)
  mutable dur_ns : int64;  (** wall time; [-1L] while still open *)
  mutable counters : (string * int) list;
      (** counter deltas attributed to this span (including children),
          sorted by name *)
}

type track_event = {
  ev_name : string;
  track : int;
      (** explicit Chrome-trace lane ([tid]): the fleet supervisor puts
          worker slot [k]'s lifetime on lane [k + 2] *)
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_attrs : attr list;
}
(** A completed timed event pinned to an explicit track, recorded
    after the fact with {!add_timed}. Unlike spans these need no
    nesting discipline, so worker domains record them freely. *)

type t
(** A recorder: an in-memory sink accumulating spans, counters,
    histograms and bounded sample streams. *)

(** {1 Recording} *)

val create : unit -> t

val install : t -> unit
(** Make [t] the process-wide current sink. *)

val uninstall : unit -> unit
(** Remove the current sink; instrumentation reverts to no-ops. *)

val enabled : unit -> bool

val installed : unit -> t option
(** The currently installed recorder, if any (the service supervisor
    uses this to fold per-job recordings into a long-lived one). *)

val now : unit -> int64
(** Read the recorder clock (the one set by {!set_clock}), whether or
    not a recorder is installed. *)

val collect : (unit -> 'a) -> 'a * t
(** [collect f] runs [f] under a fresh recorder (restoring the previous
    sink afterwards, even on exceptions) and returns its result and the
    recording. *)

val set_clock : (unit -> int64) -> unit
(** Override the nanosecond clock (tests use a deterministic counter). *)

val use_monotonic_clock : unit -> unit
(** Restore the default monotonic clock. *)

(** {1 Instrumentation points} *)

val with_span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f] as a child of the innermost open span.
    The span is closed even if [f] raises. No-op wrapper when disabled. *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to a named counter. *)

val set : string -> int -> unit
(** Write a gauge: the counter takes exactly this value. Each write
    also appends a timestamped sample to a bounded stream so the
    Chrome-trace sink can render the gauge as a counter track. *)

val observe : string -> int -> unit
(** Record one sample into the named {!Histogram} (created on first
    use). No-op when disabled. *)

val instant : ?attrs:attr list -> string -> unit
(** Record a point-in-time mark (an ["i"]-phase event in the Chrome
    trace), e.g. a budget trip. No-op when disabled. *)

val add_timed :
  ?attrs:attr list -> track:int -> string -> start_ns:int64 -> dur_ns:int64 -> unit
(** Record an already-measured interval on an explicit track (see
    {!type:track_event}). The fleet supervisor uses this for its
    per-worker lanes; safe from any domain. No-op when disabled. *)

(** {1 Reading a recording} *)

val spans : t -> span list
(** All spans in opening order (parents before children). *)

val counters : t -> (string * int) list
(** Final counter values, sorted by name. *)

val counter : t -> string -> int
(** Final value of one counter; 0 if never touched. *)

val merge_into : into:t -> t -> unit
(** Fold [src]'s scalar aggregates into [into]: counters add, gauges
    take [src]'s last value, histograms merge bucket-for-bucket.
    Spans and bounded sample streams are deliberately not merged, so
    folding many short-lived recordings (one per service job) into a
    long-lived one stays O(metric names), not O(jobs). Raises
    [Invalid_argument] on self-merge. *)

val total_ns : t -> string -> int64
(** Summed wall time of all closed spans with the given name. *)

(** {1 Export sinks} *)

val summary_table : t -> string
(** Human-readable report built on [Bistpath_util.Table]: a span tree
    with wall times and per-span counter deltas, then the counter
    totals. *)

val chrome_trace_json : t -> string
(** Chrome trace-event JSON ([{"traceEvents":[...]}]): one [B]/[E] event
    pair per span (properly nested), one [X] (complete) event per
    explicit-track event (per-worker fleet lanes), one [i] (instant)
    event per recorded mark, one [C] (counter) event per gauge sample
    (Perfetto renders these as counter tracks) and one final [C] event
    per counter. Load in [chrome://tracing] or Perfetto. *)

val prometheus_text : t -> string
(** Prometheus text exposition (version 0.0.4): every metric name is
    sanitized to [[a-zA-Z0-9_:]] and prefixed [bistpath_]; counters
    get a [_total] suffix and [# TYPE ... counter], gauges
    [# TYPE ... gauge], histograms become [summary] families with
    [{quantile="0.5"|"0.9"|"0.99"}] sample lines plus [_sum] and
    [_count]. Suitable for a node-exporter-style textfile collector
    or an HTTP scrape endpoint fronting the file. *)

val write_file : string -> string -> unit
(** [write_file path contents] — helper used by the CLI/bench sinks.
    Writes atomically via {!Bistpath_util.Atomic_io.write_file}
    (tmp + rename + fsync), so a crash mid-write can never leave a
    truncated artifact on disk. Raises [Sys_error] on failure. *)
