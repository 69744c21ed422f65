(** In-process execution of one job.

    The one implementation of every pipeline [synth] and [synth serve]
    both offer: loading, rendering and terminal-artifact caching. The
    CLI subcommands print the artifact these functions render; the
    supervisor commits it atomically.

    The split of failure modes matters for retry policy:

    - [Error (Invalid_input lines)] — the spec names an unknown
      benchmark, or the DFG/behavioural file fails validation. This is
      deterministic; the supervisor gives up immediately (no retries)
      and records the diagnostics.
    - [Error (Check_findings lines)] — a [check] pipeline found
      error-severity violations in the synthesized artifacts
      ({!Bistpath_check.Check}), or a [verify] pipeline found the
      emitted RTL unparsable or not equivalent to the data path
      ({!Bistpath_rtl.Equiv}). Equally deterministic: the supervisor
      gives up immediately and records the findings, and the breaker is
      not fed (a sick design says nothing about the pipeline's health).
    - An exception (including injected faults and [Out_of_memory]) —
      potentially transient; the supervisor catches it and applies
      retry/backoff/breaker policy.

    A job whose own budget trips mid-search returns [Ok] with a
    best-so-far artifact; the caller distinguishes complete from
    degraded via the budget's stop reason, exactly like the CLI's
    exit-3 protocol. *)

type error = Invalid_input of string list | Check_findings of string list

val load_instance :
  ?max_errors:int -> string -> (Bistpath_benchmarks.Benchmarks.instance, string list) result
(** The one spec loader of the CLI and the service: a benchmark tag, a
    [.beh] behavioural program (compiled and scheduled as soon as
    possible) or a textual DFG file. A file's operations get a
    single-function module assignment ({!Bistpath_core.Module_assign}).
    [Error] carries every diagnostic, at most [max_errors] of them,
    rendered one per line; an unknown tag lists the known ones. *)

val flow :
  budget:Bistpath_resilience.Budget.t ->
  Bistpath_benchmarks.Benchmarks.instance ->
  Job.t ->
  Bistpath_core.Flow.result
(** The job's flow over a loaded instance: its width, flow style and
    transparency. Raises [Invalid_argument] on a flow name
    {!Bistpath_core.Flow.parse_style} rejects ({!Job.of_json} never
    builds one). *)

val render_run : Bistpath_benchmarks.Benchmarks.instance -> Bistpath_core.Flow.result -> string
(** The [run] artifact: the DFG, the flow summary and the test sessions. *)

val render_rtl :
  width:int ->
  ?regw:(string * int) list ->
  ?unitw:(string * int) list ->
  bist:bool ->
  wrapper:bool ->
  Bistpath_core.Flow.result ->
  string
(** The [rtl] artifact ({!Bistpath_rtl.Verilog.source}): BIST register
    variants with [bist], plus session steering and the self-test
    wrapper with [wrapper] (which needs [bist] and no narrowing: the
    wrapper's golden signatures are simulated on the data path module
    emitted here). [regw]/[unitw] narrow components, as in
    {!Bistpath_rtl.Verilog.emit}. The data path module is emitted
    once. *)

val rtl :
  ?cache:Bistpath_cache.Store.t ->
  budget:Bistpath_resilience.Budget.t ->
  bist:bool ->
  wrapper:bool ->
  Bistpath_benchmarks.Benchmarks.instance ->
  Job.t ->
  string * [ `Hit | `Miss ] option
(** {!render_rtl} of the job's flow as a terminal artifact stage: served
    from [cache] when warm, else rendered and stored (see {!execute}). *)

val check_report :
  ?suppress:string list ->
  ?vectors:int ->
  budget:Bistpath_resilience.Budget.t ->
  Bistpath_benchmarks.Benchmarks.instance ->
  Job.t ->
  Bistpath_core.Flow.result ->
  Bistpath_check.Check.report
(** The static verifier over the job's flow result, for the design
    [<tag>/<flow>]; [vectors] (default 10) feeds EQ001. *)

val execute :
  ?max_errors:int ->
  ?cache:Bistpath_cache.Store.t ->
  budget:Bistpath_resilience.Budget.t ->
  Job.t ->
  (string * [ `Hit | `Miss ] option, error) result
(** Deterministic for a fixed job and untripped budget: two runs
    produce byte-identical artifacts (the exactly-once guarantee
    leans on this — re-running a job after a crash rewrites the same
    bytes). [max_errors] caps the spec's diagnostics as in
    {!load_instance}.

    [cache] attaches the content-addressed result store. [run], [rtl]
    and [pareto] jobs become terminal artifact stages: a warm job is
    served byte-identical from the store ([Some `Hit]) without running
    the flow, counting [cache.hit] and [cache.hit.<stage>]; a cold one
    runs the flow, renders, and commits the artifact unless its budget
    tripped or its BIST search stopped at the node cap ([Some `Miss],
    counting [cache.miss] and [cache.miss.<stage>]). [check], [verify],
    [coverage] and [export] neither read nor write the store ([None]):
    they run the flow.
    Without [cache] the second component is always [None] and
    behaviour is byte-identical to the uncached runner. The CLI's
    [run], [rtl --bist] and [pareto] are these jobs, so the two front
    ends share one cache. *)
