(** Parser for the Verilog subset this library emits.

    Reads the output of {!Verilog.emit}/{!Verilog.primitives},
    {!Testbench.generate} and {!Bist_wrapper.emit} back into a typed
    AST so the emitted RTL can be re-analyzed — structural equivalence
    ({!Equiv}), golden-drift detection, chaos semantic checks.

    Representation: the lexer makes one pass over the text into three
    flat int arrays, one slot per token: its kind (a constant
    constructor: punctuation, each keyword, identifier, escaped
    identifier, number, string), its line, and an operand (a name id
    or a literal-table index). Names are interned per parse, so the
    AST shares one string per distinct name: compare ASTs with [=].
    An escaped identifier never lexes as a keyword. Sized and unsized
    literals are decoded by digit accumulation; a based value above
    [max_int] but below 2{^63} wraps negative, as [int_of_string]
    reads it. The parser matches token kinds and climbs operator
    precedence; the AST and every diagnostic (text and line) are those
    of the string-token parser it replaced, which the tests keep as an
    oracle.

    Resilience contract: parsing {e never raises} and always returns.
    Malformed input produces a best-effort AST plus accumulated typed
    diagnostics with line numbers, capped by [max_errors]; recovery
    skips to the next [;] or [endmodule]. A decimal literal or width
    beyond [max_int] is a ["bad number literal"] error, and a [module]
    keyword inside a module body ends that module with a ["missing
    'endmodule'"] error. The [rtl.parse] injection site degrades to a
    counted error diagnostic, and every error diagnostic bumps the
    [rtl.parse_errors] telemetry counter. *)

type unop = Bnot  (** [~] *) | Lnot  (** [!] *) | Rxor  (** [^e] *) | Neg  (** [-e] *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor
  | Land | Lor
  | Eq | Neq | Lt | Le | Gt | Ge
  | Shl | Shr

type expr =
  | Ident of string
  | Num of int option * int  (** sized or unsized literal: [(width, value)] *)
  | Str of string  (** string literal (testbench [$display] arguments) *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr
  | Concat of expr list
  | Repl of expr * expr  (** [{count{inner}}] *)
  | Index of expr * expr  (** [e\[i\]] *)
  | Range of expr * expr * expr  (** [e\[msb:lsb\]] *)

type dir = Input | Output

type port = {
  dir : dir;
  preg : bool;  (** declared [output reg] *)
  prange : (expr * expr) option;  (** [\[msb:lsb\]] *)
  pname : string;
  pline : int;
}

type stmt =
  | Block of stmt list
  | If of expr * stmt * stmt option
  | Case of expr * (expr list * stmt) list * stmt option
  | Nonblocking of string * expr  (** [lhs <= rhs] *)
  | Blocking of string * expr  (** [lhs = rhs] *)
  | Sys of string * expr list  (** [$display(...)], [$finish] ... *)
  | Timing of stmt option  (** [@(...)]/[#n] prefix, statement skipped *)
  | Nop

type trigger = Posedge of string | Delay of int | Star

type item =
  | Decl of {
      dreg : bool;  (** [reg]/[integer] as opposed to [wire] *)
      drange : (expr * expr) option;
      names : (string * expr option) list;  (** name, optional [= init] *)
      dline : int;
    }
  | Assign of { lhs : string; rhs : expr; aline : int }
  | Localparam of { name : string; value : expr; lline : int }
  | Always of { trigger : trigger; body : stmt; bline : int }
  | Initial of stmt
  | Instance of {
      module_name : string;
      params : (string * expr) list;  (** [#(.P(v), ...)] *)
      instance_name : string;
      conns : (string * expr) list;  (** [.port(expr), ...] *)
      iline : int;
    }

type module_ = {
  name : string;
  mparams : (string * expr) list;  (** header [#(parameter ...)] defaults *)
  ports : port list;
  items : item list;
  mline : int;
}

type t = {
  modules : module_ list;
  diagnostics : Bistpath_resilience.Diagnostic.t list;
}

val parse : ?max_errors:int -> ?file:string -> string -> t
(** Parse Verilog source text. Never raises; accumulates diagnostics
    (errors capped at [max_errors], default
    {!Bistpath_resilience.Diagnostic.default_max_errors}). [file] is
    stamped into diagnostics for reporting. *)

val errors : t -> Bistpath_resilience.Diagnostic.t list
(** The error-severity diagnostics of a parse (empty means the input
    was fully parsed). *)
