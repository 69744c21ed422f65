(** Cooperative cancellation tokens.

    A token is a single write-once cell shared between the party that
    decides to stop (a tripped {!Budget}, a driver handling a signal)
    and the solvers that should unwind. Observing a token costs one
    atomic load, so solvers can poll it in hot loops;
    the first cancellation reason wins and later ones are ignored.

    Tokens are domain-safe: any domain may cancel or poll. *)

(** Why a computation was asked to stop. *)
type reason =
  | Deadline of float  (** wall-clock budget, in configured seconds *)
  | Leaf_budget of int  (** enumeration-leaf budget, configured leaves *)
  | Cancelled of string  (** external cancellation with a free-form cause *)

type t

val create : unit -> t
(** A fresh, uncancelled token. *)

val never : t
(** A shared token that is never cancelled (and must not be): the
    zero-cost default for unbudgeted runs. Calling {!cancel} on it
    raises [Invalid_argument]. *)

val cancel : t -> reason -> bool
(** Request cancellation. Returns [true] if this call set the reason,
    [false] if the token was already cancelled (first reason wins).
    Idempotent in effect either way. *)

val cancelled : t -> bool
(** One atomic load. *)

val reason : t -> reason option
(** The winning reason, if any. *)

val describe : reason -> string
(** Human-readable rendering, e.g. ["deadline of 1.50s exceeded"]. *)
