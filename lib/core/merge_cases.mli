(** Section IV's Fig. 6: the five situations that arise when two
    variables (or intermediate registers) merge into one register, and
    their effect on multiplexers and BIST resources. *)

type case =
  | Disjoint  (** case 1: different sources, different destinations *)
  | Source_is_dest  (** case 2: a source unit of one is a destination of the other *)
  | Common_dest  (** case 3: one destination unit in common, sources differ *)
  | Common_source  (** case 4: one source unit in common, destinations differ *)
  | Common_both  (** case 5: a common source and a common destination *)

val case_number : case -> int
(** 1..5, the paper's numbering. *)

val describe : case -> string

val classify : Sharing.ctx -> string -> string -> case
(** Classify the merge of two variables by their producing/consuming
    units. Primary inputs have no source unit; primary outputs no
    destination unit — absence never counts as "common". *)
