(** The job lifecycle as a pure state machine.

    A job is accepted with {!fresh} state, then each event — an attempt
    starting, its outcome, a drain interrupting it, the worker running
    it dying, a resumed run re-admitting it — moves it to a new state
    and yields the {!decision} the driver must carry out. The function
    does no I/O and reads no clock, so the retry budget, the backoff
    formula and the exactly-once bookkeeping have one definition:
    {!Lifecycle} executes its decisions for both [serve] drivers, and
    {!Journal.fold_state} is a fold of it over the journaled records. *)

type policy = {
  max_attempts : int;  (** attempts a job may be charged, >= 1 *)
  retry_base_ms : float;  (** backoff base; see {!step} *)
}

type state = {
  attempts : int;
      (** attempts charged against the retry budget: started ones,
          minus those a drain interrupted *)
  terminal : bool;  (** a result or a give-up has been decided *)
}

val fresh : state
(** A just-accepted job: no attempts, not terminal. *)

type outcome =
  | Completed of string option
      (** the artifact was committed; [Some reason] when a budget
          truncated it (a degraded result) *)
  | Invalid of string
      (** deterministic failure — an invalid input design or
          error-severity check findings: retrying cannot help *)
  | Failed of string
      (** possibly transient: an exception or a failed result write *)

type event =
  | Start  (** an attempt begins; it is charged from here on *)
  | Finished of outcome  (** the attempt ran to an outcome *)
  | Interrupted  (** a drain cancelled the attempt mid-flight *)
  | Worker_died of string
      (** the fleet worker holding the job died (cause); the attempt it
          was running stays charged *)
  | Resume  (** a replayed, non-terminal job enters a resumed run *)

type decision =
  | Commit of string option
      (** journal [done] — [ok], or [degraded] with the reason *)
  | Retry of { error : string; backoff_ns : int64 }
      (** the attempt failed: journal the failure, feed the breaker and
          run the job again after [backoff_ns] *)
  | Give_up of { error : string; attempt_failed : bool }
      (** terminal failure: journal [give_up] and write [<id>.err].
          [attempt_failed] means the attempt itself failed (journal the
          failure and feed the breaker first); it is [false] for
          deterministic failures, which say nothing about the
          pipeline's health, and for give-ups decided outside an
          attempt *)
  | Pending  (** nothing to record: the job runs, or waits to run *)

val step : policy -> ?jitter:(unit -> float) -> state -> event -> state * decision
(** The transition function. [Failed] below [max_attempts] retries
    after [retry_base_ms * 2^(n-1)] ms scaled by [0.5 + jitter ()],
    where [n] is the attempt that failed ([n] is capped at 11) and
    [jitter] returns a sample in [\[0, 1)] (default [0.5]); it is
    called only for a [Retry]. At [max_attempts] the job gives up. [Worker_died]
    and [Resume] give up once the budget is spent and otherwise leave
    the job pending. [Interrupted] un-charges the attempt, so a job
    drained on its last allowed attempt runs again. Once terminal, a
    state stays terminal. *)
