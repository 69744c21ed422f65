(** Single stuck-at fault model on circuit nets. *)

type polarity = Stuck_at_0 | Stuck_at_1

type t = { net : int; polarity : polarity }

val pp : Format.formatter -> t -> unit

val all : Circuit.t -> t list
(** Both polarities on every net. *)

val collapsed : Circuit.t -> t list
(** Structural equivalence collapsing: along inverter and buffer chains,
    the input faults dominate the output faults (s-a-v on a BUF input is
    equivalent to s-a-v on its output; through a NOT, polarity flips) —
    keep the representative closest to the primary inputs. On other
    gates, an input s-a-(controlling value) is equivalent to the output
    s-a-(controlled value); the classical rule keeps the output fault
    once per gate and all input faults of the non-controlling kind. The
    result is sound (every collapsed-list detection set equals the full
    list's) and typically 40-60%% of [all]. *)

val stuck : t -> int * int64
(** The fault as {!Sim.eval_chunk}'s [~stuck] argument: its net and the
    word it is forced to. *)

val inject : Circuit.t -> t -> int64 array -> int64 array
(** Net values under the fault, given fault-free input words:
    {!Sim.eval_nets} with the faulty net forced. *)
