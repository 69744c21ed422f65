(** Per-class circuit breakers.

    One breaker per job class (pipeline name). The classic three-state
    machine:

    - {b closed} — jobs run normally; [threshold] {e consecutive}
      failures trip the breaker open (one success resets the streak).
    - {b open} — jobs of the class are rejected without running, so a
      poisoned pipeline degrades its own class instead of burning the
      queue's time; after [cooldown_s] the next check admits a single
      probe (half-open).
    - {b half-open} — a probe has been admitted; its success closes
      the breaker, its failure re-opens it for another cooldown. If
      the probe resolves without a verdict (its job was retired
      without reporting {!success} or {!failure} — an invalid-input
      give-up, say), the next {!check} admits a fresh probe instead of
      rejecting, so the class can never starve behind a verdict that
      will never arrive.

    The registry is single-owner (the supervisor loop); it is not
    domain-safe. Time comes from an injectable monotonic nanosecond
    clock so tests can drive the state machine deterministically.

    Telemetry: each closed/half-open → open transition increments
    [service.breaker_trips]; the [service.breaker_open] gauge tracks
    how many classes are currently open or half-open. *)

type t

val create : ?clock:(unit -> int64) -> threshold:int -> cooldown_s:float -> unit -> t
(** [threshold >= 1] ([Invalid_argument] otherwise); [clock] defaults
    to the monotonic clock. *)

type decision =
  | Allow  (** closed: run the job *)
  | Probe
      (** open past cooldown (or half-open with the previous probe's
          verdict never reported): run it as the half-open probe *)
  | Reject of float
      (** open: fail fast; the payload is seconds until the next
          probe would be admitted *)

val check : t -> string -> decision
(** Decide for one class; [Probe] transitions the class to half-open
    as a side effect (the caller must then report {!success} or
    {!failure} for that class before asking again). *)

val success : t -> string -> unit

val failure : t -> string -> bool
(** [true] when this failure tripped the class open (from closed or
    half-open) — the caller's cue to count a breaker trip. *)

val states : t -> (string * string) list
(** Every class the breaker has ever seen with its current state name
    (["closed"], ["open"] or ["half_open"]), sorted by class — the
    [--metrics] snapshot exports these as
    [service.breaker.<class>] gauges. *)
