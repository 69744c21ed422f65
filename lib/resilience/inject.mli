(** Deterministic fault injection for resilience testing.

    Named code sites call {!fire} (or {!should_fire} /
    {!fire_sys_error}); when the process is armed — via the
    [BISTPATH_INJECT] environment variable or {!configure} — each call
    draws from a deterministic per-site PRNG stream and fails with
    probability [p], letting tests and CI prove that the degradation
    paths (telemetry sink error handling, allocator unwinding, service
    retries) actually recover. Disarmed (the production
    default), every probe costs one atomic load and a branch.

    {b Environment}: [BISTPATH_INJECT="site[=prob][,site[=prob]...]"],
    probability in \[0,1\] defaulting to 1.0 (always fire);
    [BISTPATH_INJECT_SEED] (integer, default 0xB157) seeds the root
    generator. Example:
    [BISTPATH_INJECT="pareto.leaf=0.05,telemetry.write" synth ...].

    {b Determinism}: each site receives one {!Bistpath_util.Prng.split}
    child of the root generator, derived in sorted-site order, so a
    site's fire/no-fire stream depends only on the seed and the set of
    armed sites — not on configuration order. Draws within a site are
    serialized by a mutex, so a site stays safe to probe from the fleet
    heartbeat domain.

    {b Registered sites} (see {!sites}):
    - [telemetry.write] — the trace-file sink fails with [Sys_error]
      (probed by the CLI and bench harness before
      [Telemetry.write_file]).
    - [allocator.leaf] — the BIST allocator's branch-and-bound raises at
      a complete assignment ([Bistpath_bist.Allocator.solve]).
    - [pareto.leaf] — a Pareto leaf evaluation raises
      ([Bistpath_bist.Pareto.explore]).
    - [service.journal] — a write-ahead journal append fails with
      [Sys_error] ([Bistpath_service.Journal.append]); the supervisor
      retries the append and degrades to in-memory state rather than
      crashing.
    - [service.result_io] — a per-job result-file write fails with
      [Sys_error] ([Bistpath_service.Service]); the job is retried
      with backoff like any other failure.
    - [service.worker] — job execution raises before running the
      pipeline ([Bistpath_service.Service]), modelling a crashed
      worker; the job becomes a typed failure record and is retried.
    - [check.rule] — a static-analysis rule raises as it starts
      ([Bistpath_check.Check.run]); the crash degrades to a per-rule
      CHK000 finding instead of failing the whole check run.
    - [cache.io] — a result-cache read or write fails with [Sys_error]
      ([Bistpath_cache.Store]); a failed read degrades to a miss and a
      failed write to a skipped store, both counted in
      [cache.io_errors] — the pipeline recomputes, never crashes.
    - [fleet.heartbeat] — a fleet worker's heartbeat write fails with
      [Sys_error] ([Bistpath_service.Lease.heartbeat]); the worker
      keeps running (a stale heartbeat at worst provokes a lease steal,
      which re-runs the job byte-identically).
    - [fleet.claim] — a job-claim rename fails with [Sys_error]
      ([Bistpath_service.Lease.claim]); the worker treats it as claim
      contention and retries on the next poll — the pending lease is
      never lost.
    - [rtl.parse] — the Verilog parse-back front end
      ([Bistpath_rtl.Parser.parse]) degrades to an error diagnostic
      counted in [rtl.parse_errors]; callers see unparsable input
      (exit 4 from [synth verify]), never a crash.

    Telemetry: every shot that fires increments [resilience.injected]. *)

exception Injected of string
(** Raised by {!fire}; the payload is the site name. *)

val sites : string list
(** All site names probed by the pipeline. *)

val enabled : unit -> bool
(** At least one site is armed. *)

val configure : ?seed:int -> (string * float) list -> unit
(** Arm the given sites programmatically (tests), replacing any previous
    or environment-derived configuration. [configure []] disarms. Sites
    with probability 0 are dropped. *)

val should_fire : string -> bool
(** Draw for one site; [false] when disarmed or the site is not
    configured. *)

val fire : string -> unit
(** [should_fire] and raise {!Injected} on a hit. *)

val fire_sys_error : string -> unit
(** [should_fire] and raise [Sys_error "injected fault at site <s>"] on
    a hit — for sites whose real failure mode is an I/O error. *)
