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

val embeddings :
  ?transparency:bool -> Bistpath_datapath.Datapath.t -> string -> embedding list
(** All BIST embeddings of the unit, deterministic order; with
    [~transparency:true] (default false) the TPG candidates include
    one-hop transparent paths. Empty iff the unit cannot be tested with
    register-based BIST on this data path. *)

val simple_ipaths : Bistpath_datapath.Datapath.t -> string list
(** Human-readable list of every simple I-path in the data path, e.g.
    "R1 -> M2.L" and "M1 -> R2"; regenerates the paper's Fig. 1/3 views. *)
