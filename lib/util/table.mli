(** Plain-text aligned tables, used by the benchmark harness and CLI to
    print the paper's tables. *)

type align = Left | Right

type t
(** A table under construction: a header row plus data rows. *)

val create : (string * align) list -> t
(** [create columns] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** Append a data row. Raises [Invalid_argument] if the width differs from
    the header. *)

val to_string : t -> string
(** Render with box-drawing-free ASCII, columns padded to content. *)
