(** Shared-spool job leases for the worker fleet.

    The lock-free claim substrate fleet mode is built on: one file per
    job under a fleet root directory, moved between states with atomic
    [rename] so any number of crash-prone worker processes can claim
    work without locks, and a dead worker's claims can be recovered by
    the supervisor.

    {v
    <root>/
      pending/<id>.job        durable queue: jobs nobody owns
      claimed/<slot>/<id>.job leases held by the worker on <slot>
      hb/<slot>               heartbeat file, rewritten every beat
      eof                     marker: ingestion is finished
    v}

    A lease file is one JSON object [{"job":{...},"attempts":n}] —
    the full spec plus how many attempts have ever {e started} on it,
    so a claim after a crash (or a steal) knows how much retry budget
    remains without replaying any journal.

    {b Claim protocol.} [claim] renames [pending/<id>.job] into the
    worker's own [claimed/<slot>/] directory. [rename] within a
    filesystem is atomic: exactly one claimant wins, the loser sees
    [ENOENT] and moves on. No lock, no shared descriptor, no window
    where the job is in neither directory.

    {b Recovery.} Every state transition is a whole-file rename or an
    atomic rewrite, so a SIGKILL at any instant leaves each job in
    exactly one well-defined place: [pending/] (unclaimed), or
    [claimed/<slot>/] (the supervisor steals it back with {!requeue}
    when the worker dies or its heartbeat expires).

    Fault-injection sites: [fleet.claim] (a claim rename fails — the
    claimant skips the file this poll; the pending lease is never
    lost) and [fleet.heartbeat] (a beat write fails — the worker keeps
    running; at worst a stale heartbeat provokes a steal, which
    re-runs the job byte-identically). *)

type t
(** A fleet root with its directory layout created. *)

type lease = { job : Job.t; attempts : int }
(** [attempts] = attempts ever started on the job (across all workers
    and incarnations). *)

val create : root:string -> slots:int -> t
(** Create (or reuse) the layout under [root] with claim directories
    for slots [0 .. slots-1]. Raises [Sys_error] on unusable paths. *)

val reset : t -> unit
(** Remove every lease, heartbeat and the eof marker — a fresh start
    (new run, or a resume about to rebuild [pending/] from the merged
    journal). The directories themselves remain. *)

val submit : t -> lease -> unit
(** Atomically publish a lease into [pending/] (tmp + rename), making
    it claimable. Overwrites any previous lease of the same id. *)

val claim : t -> slot:int -> lease option
(** Scan [pending/] in sorted id order and atomically take the first
    claimable job into [claimed/<slot>/]. [None] when nothing was
    claimable this poll (empty, lost every race, or an injected
    [fleet.claim] fault). An unparsable pending file is deleted and
    skipped — it can only be a foreign artifact, since {!submit} is
    atomic. *)

val update : t -> slot:int -> lease -> unit
(** Atomically rewrite a held lease (bump [attempts] before starting
    one), so a crash mid-attempt is visible to the stealer. *)

val release : t -> slot:int -> string -> unit
(** Delete a held lease — the job reached a terminal state (result
    committed or given up). Tolerates the file already being gone (a
    steal won the race; re-runs are byte-identical). *)

val return_ : t -> slot:int -> lease -> unit
(** Publish a held lease back to [pending/] and drop the claim — a
    drained worker handing back work it will not finish. *)

val held : t -> slot:int -> lease list
(** The leases currently in [claimed/<slot>/], sorted by id — what the
    supervisor inspects before stealing from a dead worker. *)

val requeue : t -> slot:int -> string -> unit
(** Atomically move one held lease back to [pending/] (the steal).
    Tolerates the file already being gone. *)

val discard : t -> slot:int -> string -> unit
(** Delete one held lease without requeueing (its retry budget is
    exhausted; the caller records the give-up). *)

val pending_count : t -> int
val held_count : t -> int
(** Leases across all slots' claim directories. *)

val mark_eof : t -> unit
(** Ingestion is finished: workers seeing an empty [pending/] after
    this may exit instead of polling. *)

val eof : t -> bool

val beat : t -> slot:int -> unit
(** Rewrite the slot's heartbeat file. Raises [Sys_error] on I/O
    failure or an injected [fleet.heartbeat] fault — callers tolerate
    and keep working. *)

val beat_mtime : t -> slot:int -> float option
(** Wall-clock mtime of the slot's last heartbeat, for expiry checks
    against [Unix.gettimeofday]. [None] before the first beat. *)
