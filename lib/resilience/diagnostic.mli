(** Typed diagnostics with bounded accumulation.

    The DFG front ends report {e every} problem they can find — not just
    the first — as a list of typed diagnostics carrying a severity, an
    optional source location and a message, capped by a [max_errors]
    budget so a garbage input cannot produce an unbounded report. Every
    design-input path ([Parser.parse_file_diags], [Parser.to_dfg_diags],
    [Frontend.compile_diags], [Dfg.make_diags]) reports through this
    module; only [Dfg.make] still raises on the first violation. *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  file : string option;
  line : int option;  (** 1-based *)
  message : string;
}

val error : ?file:string -> ?line:int -> string -> t
val warning : ?file:string -> ?line:int -> string -> t
val note : ?file:string -> ?line:int -> string -> t
val errorf : ?file:string -> ?line:int -> ('a, Format.formatter, unit, t) format4 -> 'a

val severity_label : severity -> string
(** ["error"], ["warning"] or ["note"] — the one spelling of a severity
    in every report format. *)

val to_string : t -> string
(** ["file:3: error: ..."] / ["line 3: error: ..."] / ["error: ..."]. *)

(** {1 Accumulation} *)

type collector

val collector : ?max_errors:int -> unit -> collector
(** Errors beyond [max_errors] (default {!default_max_errors}, must be
    >= 1) are counted but not stored; warnings and notes are never
    capped. *)

val emit : collector -> t -> unit

val errors : collector -> int
(** Errors stored (capped). *)

val all : collector -> t list
(** In emission order; if the cap dropped errors, a trailing [Note]
    saying how many. *)
