(** Write-ahead journal for the job service.

    An append-only NDJSON file recording every job state transition:

    {v
    {"ev":"accept","job":{...full spec...}}
    {"ev":"start","id":"j1","attempt":1}
    {"ev":"fail","id":"j1","attempt":1,"error":"..."}
    {"ev":"done","id":"j1","attempt":2,"status":"ok"}
    {"ev":"give_up","id":"j2","error":"..."}
    {"ev":"interrupted","id":"j3","attempt":1}
    {"ev":"drain"}
    v}

    Each append is one [write] + [fsync] on an [O_APPEND] descriptor,
    so a record is durable before the action it authorizes proceeds
    (result files are written {e before} their [done] record, making
    [done] the commit point of exactly-once semantics). {!replay_merged}
    tolerates a truncated final line — the signature of a crash
    mid-append — by ignoring it, and {!open_} repairs such a torn tail
    before the journal is appended to again, so a second crash cannot
    turn it into mid-file corruption.

    Fault injection: {!append} probes the [service.journal] site and
    raises [Sys_error] on a hit, exactly like a real disk error. *)

type event =
  | Accept of Job.t
  | Start of { id : string; attempt : int }
  | Done of {
      id : string;
      attempt : int;
      status : string;
      reason : string option;
      cache : string option;
    }
      (** [status] is ["ok"] or ["degraded"]; [reason] is the budget's
          stop reason for degraded results. [cache] is [Some "hit"] when
          the artifact was served from the result cache, [Some "miss"]
          when a consulted cache had no entry, [None] when the service
          ran without one (including every journal written before
          caching existed — the field is absent on disk and replays as
          [None]). *)
  | Fail of { id : string; attempt : int; error : string }
  | Give_up of { id : string; error : string }
  | Interrupted of { id : string; attempt : int }
      (** a drain cancelled this attempt mid-flight; it is not charged
          against the retry budget (fold_state un-counts its [start]) *)
  | Drain  (** graceful-shutdown checkpoint: in-flight work was abandoned *)

type t
(** An open journal (descriptor kept across appends). *)

val open_ : string -> t
(** Open for append, creating the file if needed. If a previous crash
    left a torn final record (no trailing newline), the tail is
    repaired first — terminated if it parses, truncated away otherwise
    — so new appends can never merge with it into an unreadable
    mid-file line. Raises [Sys_error]. *)

val append : t -> event -> unit
(** Serialize, append, fsync. Raises [Sys_error] on I/O failure or an
    injected [service.journal] fault. *)

val close : t -> unit

(** {1 Fleet journal shards}

    In fleet mode every worker process appends to its own shard —
    [<journal>.shard<slot>] beside the supervisor's journal — so no
    two processes ever share an append descriptor. *)

val shard_path : string -> int -> string
(** [shard_path journal slot] — the shard file a worker on [slot]
    appends to. Raises [Invalid_argument] for a negative slot. *)

val shards : string -> string list
(** Existing shard files beside [journal], sorted by slot. *)

val replay_merged : string -> event list
(** Parse the journal back, in order, followed by each shard's events
    in slot order. A missing file is an empty journal; an unparsable
    {e final} line of a file is ignored (crash mid-append); an
    unparsable line elsewhere raises [Sys_error] — that is corruption,
    not a crash artifact. Per-job resume state ({!fold_state}) does not depend on event
    order {e between} files: accepts live in the supervisor journal and
    the per-job attempt/terminal counts commute, so concatenation is a
    faithful merge. A torn tail in one shard (worker SIGKILLed
    mid-append) is ignored locally — jobs journaled in other shards
    replay unaffected. *)

(** {1 Derived state} *)

type job_state = {
  job : Job.t;
  attempts : int;
      (** [start] records seen, minus drain-[interrupted] ones — the
          attempts actually charged against the retry budget *)
  terminal : bool;  (** a [done] or [give_up] record exists *)
}

val fold_state : event list -> job_state list
(** Accepted jobs in first-accept order with their replayed state —
    what [--resume] re-queues ([terminal = false] entries). Duplicate
    accepts of one id collapse onto the first. Each job's state is a
    fold of {!Transition.step} over its records. *)
