(** I-paths (Abadir & Breuer) and BIST embeddings on a data path.

    A simple I-path runs from a register through (possibly) a multiplexer
    to a unit input port, or from a unit output port to a register — data
    transferred unaltered, activatable by control in test mode. In our
    netlist model a register R has a simple I-path to port P iff R is
    among P's sources, and a unit U has a simple I-path to register R iff
    U is among R's writers.

    With {e transparency} enabled, longer I-paths are also considered: R
    can reach a port P through a transparent unit U (R -> U -> R' -> P,
    with U's other port held at the identity element and R' acting as a
    pipeline register), enlarging the set of potential pattern
    generators at no extra register-modification cost. *)

type side = L | R

val tpg_candidates : Bistpath_datapath.Datapath.t -> string -> side -> string list
(** Registers with a simple I-path to the given port of the unit. *)

val tpg_candidates_transparent :
  Bistpath_datapath.Datapath.t -> string -> side -> (string * string) list
(** Additional pattern sources reaching the port through one transparent
    unit: [(register, via-unit)] pairs, excluding registers that already
    have a simple I-path, the unit under test itself as channel, and
    channels whose hold port has no source. Sorted, first channel per
    register. *)

val sa_candidates : Bistpath_datapath.Datapath.t -> string -> string list
(** Registers with a simple I-path from the unit's output. *)

type embedding = {
  mid : string;
  l_tpg : string;
  r_tpg : string;  (** distinct from [l_tpg]: the two ports need
                        independent pattern sources *)
  sa : string;
  l_via : string option;  (** transparent unit channelling the left patterns *)
  r_via : string option;
}

val requires_cbilbo : embedding -> bool
(** The SA register is also one of the TPGs: it must generate and compact
    concurrently for this module, i.e. be a CBILBO. *)

val registers : Bistpath_datapath.Datapath.t -> string array
(** The data path's register ids, numbered in [regs] order (a repeated
    id keeps its first number). Every register number in this module
    and in the BIST allocator indexes this array. *)

(** One unit's BIST embeddings, factored: an embedding is a left source,
    a right source distinct from it, and an SA register, each chosen
    independently, so the three sets stand for their whole product. In
    I-path order the left source is outermost, then the right source,
    then the SA register, each in its array's order. *)
type row = {
  unit : string;
  left : int array;
      (** registers reaching the left port, in I-path order: the simple
          sources sorted by id, then (with transparency) the transparent
          ones sorted by id; each register once *)
  left_via : int array;
      (** per left source, the row of the unit channelling it, or -1
          for a simple I-path *)
  right : int array;  (** as [left], for the right port *)
  right_via : int array;
  sas : int array;  (** registers the unit's output reaches, sorted by id *)
}

type table = {
  regs : string array;  (** {!registers} *)
  rows : row array;  (** one per unit, in module-assignment order *)
}

val table : ?transparency:bool -> Bistpath_datapath.Datapath.t -> table
(** Every unit's row, built in one pass over the units; with
    [~transparency:true] (default false) the ports also list their
    one-hop transparent sources ({!tpg_candidates_transparent}). The
    one source of embeddings for the allocator, the Pareto sweep and
    the static checker. *)

val row : table -> string -> row
(** The unit's row; an empty one for a unit the table lacks. *)

val embedding_count : row -> int
(** The number of embeddings: [|sas| * (|left| * |right| - |left ∩ right|)]. *)

val cbilbo_count : row -> int
(** The number of embeddings that {!requires_cbilbo}, counted from the
    three sets. *)

val embeddable : row -> bool
(** Some embedding exists: the unit can be tested with register-based
    BIST on this data path. *)

val cbilbo_unavoidable : row -> bool
(** Embeddable, and every embedding {!requires_cbilbo}: the
    post-interconnect situation Lemma 2 predicts. *)

val embedding : table -> row -> int -> int -> int -> embedding
(** [embedding t row li ri si]: the embedding at those positions, as a
    record. *)

val simple_ipaths : Bistpath_datapath.Datapath.t -> string list
(** Human-readable list of every simple I-path in the data path, e.g.
    "R1 -> M2.L" and "M1 -> R2"; regenerates the paper's Fig. 1/3 views. *)
