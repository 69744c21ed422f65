(** The paper's Lemma 1 and Lemma 2: register-assignment conditions under
    which, after minimum interconnect assignment, some register must be a
    CBILBO in {e every} BIST embedding of a module.

    Lemma 2: register Rx is a CBILBO in all embeddings of module M iff
    Rx intersects every instance's operand set I_M^j and either
    (i) Rx contains all of O_M, or (ii) Rx contains part of O_M and some
    register Ry holds the rest of O_M while also intersecting every
    I_M^j (then either of Rx, Ry can be the CBILBO).

    The lemma is stated under the paper's assumptions (all operators
    commutative, minimum interconnect). In this repository it serves as
    the allocator's {e predictive} check — it runs during coloring, when
    no data path exists yet — while the exact post-interconnect ground
    truth is whether every embedding of the unit requires a CBILBO
    ({!Bistpath_ipath.Ipath.cbilbo_unavoidable} on the unit's row of
    the embedding table), the fact the BIST check rules read. Measured
    against that ground truth on randomly generated designs (see
    test_cbilbo), the prediction has perfect precision and ~90% recall
    on all-commutative units; rare escapes occur when minimum-connection
    orientations tie and the interconnect optimizer picks a balanced one
    the lemma's model did not anticipate. For non-commutative units the
    pinned operand sides make it a further over-approximation — still
    safe for the avoidance filter, which only uses the verdict to prefer
    one merge over another. *)

type verdict = {
  mid : string;
  case_i : string list;  (** registers triggering case (i) *)
  case_ii : (string * string) list;  (** (Rx, Ry) pairs triggering case (ii) *)
}

val verdicts : Sharing.ctx -> classes:(string * string list) list -> verdict list
(** Evaluate Lemma 2 for every unit, in {!Sharing.units} order, against
    a (possibly partial) register assignment given as
    register-id/variable-list classes. The classes must be disjoint;
    names outside the design are ignored. *)

val forced : verdict -> bool
(** Does the verdict force a CBILBO for this module? *)

(** {1 Live counters}

    The same lemma over a register assignment that grows one variable at
    a time, as the testable allocator builds it. Each register keeps,
    per unit, how many of O_M it holds and how many instances it
    covers; a verdict reads only those counts. Registers are numbered
    in opening order. *)

type t

val create : Sharing.ctx -> t
(** No registers yet. *)

val open_register : t -> string -> unit
(** Append an empty register with the given id. *)

val add : t -> int -> int -> unit
(** [add t i v] puts variable index [v] ({!Sharing.var_index}) into
    register [i]. The variable must not already be in a register. *)

val min_count : t -> int
(** Lower bound on CBILBOs implied by the lemma for the current
    assignment: number of modules with a forced verdict, collapsed by
    shared registers (one CBILBO register can cover several modules'
    forced situations when the same register triggers each of them).
    The cover commits, at each step, the register offered by the most
    remaining modules, the first in string order ("R10" < "R2") on a
    tie. The per-module verdicts are kept until the next
    {!open_register} or {!add}. *)

val min_count_with : t -> int -> int -> int
(** [min_count_with t i v] is {!min_count} as if [add t i v] had been
    done, without doing it: only the modules reading or writing [v] are
    re-judged. *)
