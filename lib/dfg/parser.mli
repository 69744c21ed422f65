(** Textual DFG format, round-trippable with {!to_string}:

    {v
    # comment
    dfg ex1
    input a b e g
    output h
    op +1 = a + b -> d @ 1
    op *2 = e * g -> h @ 3
    v}

    The "@ step" suffix is optional on every [op] line; if any is missing
    the result is unscheduled and must be completed with {!Scheduler}
    before use (parse then returns the raw pieces). *)

type unscheduled = {
  name : string;
  ops : Op.t list;
  inputs : string list;
  outputs : string list;
  partial_schedule : (string * int) list;
  lines : Dfg.lines;  (** where each op and output was declared *)
}

val parse_string_diags :
  ?max_errors:int -> string -> unscheduled * Bistpath_resilience.Diagnostic.t list
(** Accumulating parse: a malformed line is reported (with its line
    number) and skipped rather than aborting, so one run surfaces every
    problem in the file, capped at [max_errors]
    (20 by default, the CLI's [--max-errors] default).
    The returned pieces cover every line that did parse; they are only
    meaningful when the diagnostic list carries no error. *)

val parse_file_diags :
  ?max_errors:int -> string -> unscheduled * Bistpath_resilience.Diagnostic.t list
(** {!parse_string_diags} on a file's contents, with the path attached
    to every diagnostic. An unreadable file yields one error. *)

val to_dfg_diags :
  ?max_errors:int ->
  unscheduled ->
  (Dfg.t, Bistpath_resilience.Diagnostic.t list) result
(** Requires every operation scheduled and validates via
    {!Dfg.make_diags}: reports {e every} unscheduled operation, or every
    validation violation. Each diagnostic carries the line of the op or
    output it names. *)

val to_string : Dfg.t -> string
(** Render in the accepted format. *)
