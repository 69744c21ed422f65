(** Resource budgets for anytime search.

    A budget bundles a wall-clock deadline (monotonic clock, immune to
    system-time jumps) with an enumeration-leaf quota and a {!Cancel}
    token. Solvers report progress with {!node} / {!leaf} and poll
    {!should_stop}; when the deadline or the leaf quota trips, the token
    is cancelled with the corresponding {!Cancel.reason} and every party
    holding the budget (or just its token) unwinds cooperatively,
    returning its best-so-far result.

    {!stop_reason} is the one way a caller learns that a search stopped
    early: [synth] exits 3 and [synth serve] journals the job as
    degraded and does not cache it. The solvers' own fixed caps — the
    allocator's [node_cap] and the Pareto sweep's [leaf_cap] — do not
    trip the budget. The allocator reports its cap through
    [solution.exact]: the run exits 0, and the service runner does not
    cache it. The Pareto cap is silent.

    {!unlimited} — the default everywhere — short-circuits every
    operation to a single branch, so budgeting is zero-cost when not
    requested and budgeted runs are bit-identical to unbudgeted ones
    until a quota actually trips.

    Deadline checks are amortized: {!node} reads the clock every 64
    calls, {!leaf} and {!should_stop} on every call. Counters are
    plain mutable fields — only the owning solver should call {!node} /
    {!leaf}; other domains must restrict themselves to {!should_stop}
    and the token (both domain-safe).

    Telemetry: the first deadline trip increments
    [resilience.deadline_hits]. *)

type t

val unlimited : t
(** Never trips; {!node}, {!leaf} and {!should_stop} cost one branch. *)

val create :
  ?deadline_s:float ->
  ?leaf_budget:int ->
  ?cancel:Cancel.t ->
  unit ->
  t
(** Both quotas optional (omitted = unbounded). [deadline_s] is relative
    to now and must be positive; [leaf_budget] must be >= 1
    ([Invalid_argument] otherwise). [cancel] shares an external token,
    e.g. to link several budgets to one kill switch. *)

val node : t -> unit
(** Count one search node; every 64th reads the deadline clock. *)

val leaf : t -> unit
(** Count one enumeration leaf against the leaf budget. *)

val should_stop : t -> bool
(** [true] once any quota has tripped or the token was cancelled
    externally. Safe to call from any domain. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b option list
(** [map t f xs] applies [f] in order, polling {!should_stop} before
    each element: element [i] is [Some (f x_i)] if it was evaluated
    before the budget tripped and [None] otherwise. With an untripped
    budget (or {!unlimited}) this is [List.map (fun x -> Some (f x))];
    a budget tripped before the call yields all-[None]. *)

val stop_reason : t -> Cancel.reason option
(** Why the budget tripped, or [None] if it has not (always [None] for
    {!unlimited}). A solver's result is degraded — valid but possibly
    sub-optimal or incomplete — exactly when this is [Some]. *)

val nodes : t -> int
(** Nodes counted so far (0 for {!unlimited}). *)

val leaves : t -> int
