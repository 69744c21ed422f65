(** Behavioural front end: compile a small expression language to an
    (unscheduled) operation list, so a design can be written as formulas
    rather than hand-numbered operations.

    {v
    # differential-equation solver body
    x1 = x + dx;
    u1 = u - 3 * x * u * dx - 3 * y * dx;
    y1 = y + u * dx;
    cc = x1 < a;
    v}

    Grammar (per statement, [;] or newline separated, [#] comments):
    [name = expr] with [expr] over identifiers, parentheses and the
    binary operators [+ - * / & | ^ <]; [* / & | ^] bind tighter than
    [+ -], which bind tighter than [<]; same-precedence operators
    associate left. Numeric literals denote constant input ports and
    become inputs named [kN].

    Undefined names are primary inputs; defined-but-unused names are
    primary outputs (plus anything listed in an [output a b c]
    directive). Common subexpressions are shared (hash-consing), and
    every intermediate node gets a fresh [tN] variable. *)

val compile_diags :
  name:string ->
  ?resources:(Op.kind * int) list ->
  ?max_errors:int ->
  string ->
  (Dfg.t, Bistpath_resilience.Diagnostic.t list) result
(** Compile to an unscheduled problem, then schedule it by
    resource-constrained list scheduling (default: unconstrained —
    every operation as early as possible). A bad statement is reported
    (with its line number) and skipped rather than aborting, so one run
    surfaces every problem in the text, capped at [max_errors] (20 by
    default).
    The error is the parse diagnostics, or — when parsing succeeded —
    every DFG validation violation ({!Dfg.make_diags}). *)
