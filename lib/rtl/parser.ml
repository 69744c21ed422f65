module Diagnostic = Bistpath_resilience.Diagnostic
module Inject = Bistpath_resilience.Inject
module Telemetry = Bistpath_telemetry.Telemetry

type unop = Bnot | Lnot | Rxor | Neg

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor
  | Land | Lor
  | Eq | Neq | Lt | Le | Gt | Ge
  | Shl | Shr

type expr =
  | Ident of string
  | Num of int option * int
  | Str of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr
  | Concat of expr list
  | Repl of expr * expr
  | Index of expr * expr
  | Range of expr * expr * expr

type dir = Input | Output

type port = {
  dir : dir;
  preg : bool;
  prange : (expr * expr) option;
  pname : string;
  pline : int;
}

type stmt =
  | Block of stmt list
  | If of expr * stmt * stmt option
  | Case of expr * (expr list * stmt) list * stmt option
  | Nonblocking of string * expr
  | Blocking of string * expr
  | Sys of string * expr list
  | Timing of stmt option
  | Nop

type trigger = Posedge of string | Delay of int | Star

type item =
  | Decl of {
      dreg : bool;
      drange : (expr * expr) option;
      names : (string * expr option) list;
      dline : int;
    }
  | Assign of { lhs : string; rhs : expr; aline : int }
  | Localparam of { name : string; value : expr; lline : int }
  | Always of { trigger : trigger; body : stmt; bline : int }
  | Initial of stmt
  | Instance of {
      module_name : string;
      params : (string * expr) list;
      instance_name : string;
      conns : (string * expr) list;
      iline : int;
    }

type module_ = {
  name : string;
  mparams : (string * expr) list;
  ports : port list;
  items : item list;
  mline : int;
}

type t = { modules : module_ list; diagnostics : Diagnostic.t list }

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

(* The lexer turns the source into three flat int arrays, one slot per
   token: its kind, its line and an operand. An identifier's or a
   string literal's operand is its name id, a number's its index in the
   literal table; punctuation and [Teof] have none. Names are interned,
   so the AST holds one string per distinct name. Unescaped keywords
   lex to their own kinds: an escaped identifier that spells one
   ([\module ]) stays a name, which is the point of the escape syntax. *)
type kind =
  | Teof
  | Tid  (* plain identifier *)
  | Tesc  (* escaped identifier *)
  | Tnum
  | Tstr
  (* keywords: the contiguous kinds [Kmodule] .. [Kendfunction] *)
  | Kmodule | Kendmodule | Kinput | Koutput | Kinout | Kwire | Kreg
  | Kinteger | Kassign | Kalways | Kinitial | Kbegin | Kend | Kif | Kelse
  | Kcase | Kcasez | Kendcase | Kdefault | Kposedge | Knegedge | Kparameter
  | Klocalparam | Ksigned | Kgenerate | Kendgenerate | Kfunction
  | Kendfunction
  (* punctuation *)
  | Lparen | Rparen | Lbrace | Rbrace | Lbrack | Rbrack | Semi | Colon
  | Comma | Dot | Quest | Equal | Plus | Minus | Asterisk | Slash | Percent
  | Amp | Bar | Caret | Tilde | Bang | Less | Greater | Hash | At
  | EqEq | BangEq | LessEq | GreaterEq | AmpAmp | BarBar | LessLess | GreaterGreater

let is_keyword (k : kind) = k >= Kmodule && k <= Kendfunction

(* The spelling of a keyword or punctuation kind. *)
let spelling = function
  | Kmodule -> "module" | Kendmodule -> "endmodule" | Kinput -> "input"
  | Koutput -> "output" | Kinout -> "inout" | Kwire -> "wire" | Kreg -> "reg"
  | Kinteger -> "integer" | Kassign -> "assign" | Kalways -> "always"
  | Kinitial -> "initial" | Kbegin -> "begin" | Kend -> "end" | Kif -> "if"
  | Kelse -> "else" | Kcase -> "case" | Kcasez -> "casez"
  | Kendcase -> "endcase" | Kdefault -> "default" | Kposedge -> "posedge"
  | Knegedge -> "negedge" | Kparameter -> "parameter"
  | Klocalparam -> "localparam" | Ksigned -> "signed"
  | Kgenerate -> "generate" | Kendgenerate -> "endgenerate"
  | Kfunction -> "function" | Kendfunction -> "endfunction"
  | Lparen -> "(" | Rparen -> ")" | Lbrace -> "{" | Rbrace -> "}"
  | Lbrack -> "[" | Rbrack -> "]" | Semi -> ";" | Colon -> ":" | Comma -> ","
  | Dot -> "." | Quest -> "?" | Equal -> "=" | Plus -> "+" | Minus -> "-"
  | Asterisk -> "*" | Slash -> "/" | Percent -> "%" | Amp -> "&" | Bar -> "|"
  | Caret -> "^" | Tilde -> "~" | Bang -> "!" | Less -> "<" | Greater -> ">"
  | Hash -> "#" | At -> "@" | EqEq -> "==" | BangEq -> "!=" | LessEq -> "<="
  | GreaterEq -> ">=" | AmpAmp -> "&&" | BarBar -> "||" | LessLess -> "<<"
  | GreaterGreater -> ">>"
  | Teof | Tid | Tesc | Tnum | Tstr -> ""

(* Keyword [keywords.(k)] has name id [k] in every parse. *)
let keywords =
  [| Kmodule; Kendmodule; Kinput; Koutput; Kinout; Kwire; Kreg; Kinteger;
     Kassign; Kalways; Kinitial; Kbegin; Kend; Kif; Kelse; Kcase; Kcasez;
     Kendcase; Kdefault; Kposedge; Knegedge; Kparameter; Klocalparam;
     Ksigned; Kgenerate; Kendgenerate; Kfunction; Kendfunction |]

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* --- name interning: open addressing over (source, offset, length),
   so a name already seen allocates nothing --------------------------- *)

type names = {
  mutable slots : int array;  (* name id + 1; 0 is a free slot *)
  mutable strs : string array;  (* by name id *)
  mutable hashes : int array;  (* by name id *)
  mutable count : int;
}

let hash_sub s pos len =
  let h = ref 0 in
  for k = pos to pos + len - 1 do
    h := (!h * 31) + Char.code s.[k]
  done;
  !h land max_int

let rec same_from name s pos k =
  k = String.length name || (name.[k] = s.[pos + k] && same_from name s pos (k + 1))

let same_sub name s pos len = String.length name = len && same_from name s pos 0

let place slots h id =
  let mask = Array.length slots - 1 in
  let rec go k = if slots.(k) = 0 then slots.(k) <- id + 1 else go ((k + 1) land mask) in
  go (h land mask)

let rehash names =
  let slots = Array.make (2 * Array.length names.slots) 0 in
  for id = 0 to names.count - 1 do
    place slots names.hashes.(id) id
  done;
  names.slots <- slots

let rec probe names s pos len h k =
  match names.slots.(k) with
  | 0 ->
    let id = names.count in
    if id = Array.length names.strs then begin
      names.strs <- grow names.strs "";
      names.hashes <- grow names.hashes 0
    end;
    names.strs.(id) <- String.sub s pos len;
    names.hashes.(id) <- h;
    names.slots.(k) <- id + 1;
    names.count <- id + 1;
    if 2 * names.count > Array.length names.slots then rehash names;
    id
  | slot ->
    let id = slot - 1 in
    if names.hashes.(id) = h && same_sub names.strs.(id) s pos len then id
    else probe names s pos len h ((k + 1) land (Array.length names.slots - 1))

(* The id of the name [s.\[pos, pos + len)], interned on first sight. *)
let intern names s pos len =
  let h = hash_sub s pos len in
  probe names s pos len h (h land (Array.length names.slots - 1))

(* --- the token arrays ----------------------------------------------- *)

type lexer = {
  src : string;
  diag : int -> string -> unit;
  mutable line : int;
  mutable ntoks : int;
  mutable kinds : kind array;
  mutable lines : int array;
  mutable args : int array;
  names : names;
  mutable nnums : int;
  mutable widths : int array;  (* -1 for an unsized literal *)
  mutable values : int array;
}

let push lx kind arg =
  let k = lx.ntoks in
  if k = Array.length lx.kinds then begin
    lx.kinds <- grow lx.kinds Teof;
    lx.lines <- grow lx.lines 0;
    lx.args <- grow lx.args 0
  end;
  lx.kinds.(k) <- kind;
  lx.lines.(k) <- lx.line;
  lx.args.(k) <- arg;
  lx.ntoks <- k + 1

let push_num lx width value =
  let k = lx.nnums in
  if k = Array.length lx.widths then begin
    lx.widths <- grow lx.widths 0;
    lx.values <- grow lx.values 0
  end;
  lx.widths.(k) <- width;
  lx.values.(k) <- value;
  lx.nnums <- k + 1;
  push lx Tnum k

let is_digit = function '0' .. '9' -> true | _ -> false
let is_id_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false
let is_id = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false
let is_decimal = function '0' .. '9' | '_' -> true | _ -> false
let is_based = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | '_' -> true | _ -> false
let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let digit_value c =
  if is_digit c then Char.code c - Char.code '0'
  else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
  else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
  else max_int

(* The end of the run of [ok] characters from [i]. *)
let rec scan src i ok = if i < String.length src && ok src.[i] then scan src (i + 1) ok else i

let rec id_end src i = if i < String.length src && is_id src.[i] then id_end src (i + 1) else i

(* The digits from [i] to [j], underscores dropped. *)
let digits src i j =
  let b = Buffer.create (j - i) in
  for k = i to j - 1 do
    if src.[k] <> '_' then Buffer.add_char b src.[k]
  done;
  Buffer.contents b

(* The value of the digits from [i] to [j] in [radix], underscores
   skipped; -1 when a digit is out of range or the value exceeds
   [max_int]. *)
let rec accumulate src i j radix acc =
  if i = j then acc
  else if src.[i] = '_' then accumulate src (i + 1) j radix acc
  else
    let d = digit_value src.[i] in
    if d >= radix || acc > (max_int - d) / radix then -1
    else accumulate src (i + 1) j radix ((acc * radix) + d)

(* A based literal's digits that [accumulate] rejects, read as
   [int_of_string] reads them: a based value up to 2{^63}-1 wraps into
   the negative ints, and a decimal one may carry an OCaml radix
   prefix. *)
let based_value lx line ds radix =
  let prefix = match radix with 2 -> 'b' | 8 -> 'o' | 16 -> 'x' | _ -> 'u' in
  match int_of_string_opt (Printf.sprintf "0%c%s" prefix ds) with
  | Some v -> v
  | None -> (
    match int_of_string_opt ds with
    | Some v when radix = 10 -> v
    | _ ->
      lx.diag line (Printf.sprintf "bad number literal %S" ds);
      0)

(* number: [width] ' base digits | plain decimal *)
let number lx i =
  let src = lx.src and line = lx.line in
  let n = String.length src in
  let wend = if is_digit src.[i] then scan src i is_decimal else i in
  (* -1 without a width, -2 when it overflows *)
  let width =
    if wend = i then -1
    else
      match accumulate src i wend 10 0 with
      | -1 ->
        lx.diag line (Printf.sprintf "bad number literal %S" (digits src i wend));
        -2
      | w -> w
  in
  if wend < n && src.[wend] = '\'' then begin
    let base = if wend + 1 < n then Char.lowercase_ascii src.[wend + 1] else '?' in
    (* the base character is read whatever it is, a newline too *)
    if base = '\n' then lx.line <- lx.line + 1;
    let radix =
      match base with
      | 'd' -> 10 | 'b' -> 2 | 'h' -> 16 | 'o' -> 8
      | _ ->
        lx.diag line (Printf.sprintf "unknown number base %C" base);
        10
    in
    let dstart = wend + 2 in
    let dend = scan src dstart is_based in
    let value =
      if dend <= dstart || scan src dstart (fun c -> c = '_') = dend then begin
        lx.diag line "number literal has no digits";
        0
      end
      else
        match accumulate src dstart dend radix 0 with
        | -1 -> based_value lx line (digits src dstart dend) radix
        | v -> v
    in
    if width = 0 then lx.diag line "zero-width sized literal";
    push_num lx (max width (-1)) value;
    dend
  end
  else begin
    push_num lx (-1) (max width 0);
    wend
  end

let block_comment lx i =
  let src = lx.src in
  let n = String.length src in
  let rec go j =
    if j >= n then begin
      lx.diag lx.line "unterminated block comment";
      j
    end
    else if src.[j] = '*' && j + 1 < n && src.[j + 1] = '/' then j + 2
    else begin
      if src.[j] = '\n' then lx.line <- lx.line + 1;
      go (j + 1)
    end
  in
  go (i + 2)

(* A backslash escape keeps both characters; a newline it escapes still
   ends a line. *)
let string_literal lx i =
  let src = lx.src in
  let n = String.length src in
  let rec go j =
    if j >= n then begin
      lx.diag lx.line "unterminated string literal";
      j
    end
    else
      match src.[j] with
      | '"' -> j
      | '\\' when j + 1 < n ->
        if src.[j + 1] = '\n' then lx.line <- lx.line + 1;
        go (j + 2)
      | c ->
        if c = '\n' then lx.line <- lx.line + 1;
        go (j + 1)
  in
  let stop = go (i + 1) in
  push lx Tstr (intern lx.names src (i + 1) (stop - i - 1));
  if stop < n then stop + 1 else stop

(* escaped identifier: backslash to next whitespace *)
let escaped lx i =
  let src = lx.src in
  let stop = scan src (i + 1) (fun c -> not (is_space c)) in
  if stop = i + 1 then lx.diag lx.line "empty escaped identifier"
  else push lx Tesc (intern lx.names src (i + 1) (stop - i - 1));
  stop

let identifier lx i =
  let stop = id_end lx.src (i + 1) in
  let id = intern lx.names lx.src i (stop - i) in
  push lx (if id < Array.length keywords then keywords.(id) else Tid) id;
  stop

(* The kind of a one-character token; [Teof] for none. *)
let single = function
  | '(' -> Lparen | ')' -> Rparen | '{' -> Lbrace | '}' -> Rbrace | '[' -> Lbrack
  | ']' -> Rbrack | ';' -> Semi | ':' -> Colon | ',' -> Comma | '.' -> Dot
  | '?' -> Quest | '=' -> Equal | '+' -> Plus | '-' -> Minus | '*' -> Asterisk
  | '/' -> Slash | '%' -> Percent | '&' -> Amp | '|' -> Bar | '^' -> Caret
  | '~' -> Tilde | '!' -> Bang | '<' -> Less | '>' -> Greater | '#' -> Hash
  | '@' -> At
  | _ -> Teof

(* The kind of a two-character operator; [Teof] for none. *)
let double c c1 =
  match (c, c1) with
  | '=', '=' -> EqEq | '!', '=' -> BangEq | '<', '=' -> LessEq
  | '>', '=' -> GreaterEq | '&', '&' -> AmpAmp | '|', '|' -> BarBar
  | '<', '<' -> LessLess | '>', '>' -> GreaterGreater
  | _ -> Teof

(* punctuation, longest match first; case (in)equality folds onto plain
   (in)equality: no x/z values in this subset *)
let punct lx i =
  let src = lx.src in
  let n = String.length src in
  let c = src.[i] in
  let c1 = if i + 1 < n then src.[i + 1] else '\000' in
  if (c = '=' || c = '!') && c1 = '=' && i + 2 < n && src.[i + 2] = '=' then begin
    push lx (if c = '=' then EqEq else BangEq) 0;
    i + 3
  end
  else
    match double c c1 with
    | Teof -> (
      match single c with
      | Teof ->
        lx.diag lx.line (Printf.sprintf "unexpected character %C" c);
        i + 1
      | k ->
        push lx k 0;
        i + 1)
    | k ->
      push lx k 0;
      i + 2

let lex ~diag src =
  let n = String.length src in
  (* emitted RTL averages under four bytes a token, a literal per 20 *)
  let cap = (n / 3) + 16 and ncap = (n / 16) + 16 in
  let names =
    { slots = Array.make 1024 0; strs = Array.make 256 ""; hashes = Array.make 256 0;
      count = 0 }
  in
  Array.iter
    (fun k ->
      let s = spelling k in
      ignore (intern names s 0 (String.length s)))
    keywords;
  let lx =
    { src; diag; line = 1; ntoks = 0; kinds = Array.make cap Teof;
      lines = Array.make cap 0; args = Array.make cap 0; names; nnums = 0;
      widths = Array.make ncap 0; values = Array.make ncap 0 }
  in
  let next_line i = scan src i (fun c -> c <> '\n') in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let peek = if !i + 1 < n then src.[!i + 1] else '\000' in
    i :=
      if c = '\n' then begin
        lx.line <- lx.line + 1;
        !i + 1
      end
      else if c = ' ' || c = '\t' || c = '\r' then !i + 1
      else if c = '/' && peek = '/' then next_line !i
      else if c = '/' && peek = '*' then block_comment lx !i
      else if c = '`' then next_line !i (* compiler directive (`timescale ...) *)
      else if c = '"' then string_literal lx !i
      else if c = '\\' then escaped lx !i
      else if is_id_start c || c = '$' then identifier lx !i
      else if is_digit c || (c = '\'' && is_id_start peek) then number lx !i
      else punct lx !i
  done;
  push lx Teof 0;
  lx

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type state = {
  kinds : kind array;
  lines : int array;
  args : int array;
  last : int;  (* the [Teof] token *)
  names : string array;
  widths : int array;
  values : int array;
  mutable pos : int;
  collector : Diagnostic.collector;
  file : string option;
}

exception Recover
(* Internal-only: raised on a syntax error after recording the
   diagnostic, caught at the item/module level to resynchronize. It
   never escapes [parse]. *)

let kind st = st.kinds.(st.pos)
let line st = st.lines.(st.pos)
let name st = st.names.(st.args.(st.pos))
let advance st = if st.pos < st.last then st.pos <- st.pos + 1

let err st line fmt =
  Printf.ksprintf
    (fun msg ->
      Diagnostic.emit st.collector (Diagnostic.error ?file:st.file ~line msg))
    fmt

let fail st fmt =
  let line = line st in
  Printf.ksprintf
    (fun msg ->
      err st line "%s" msg;
      raise Recover)
    fmt

let describe st =
  match kind st with
  | Teof -> "end of input"
  | Tid -> Printf.sprintf "%S" (name st)
  | Tesc -> Printf.sprintf "\\%s" (name st)
  | Tnum -> Printf.sprintf "number %d" st.values.(st.args.(st.pos))
  | Tstr -> "string literal"
  | k -> Printf.sprintf "%S" (spelling k)

let at st k = kind st = k

let eat st k =
  if at st k then advance st
  else fail st "expected %S, found %s" (spelling k) (describe st)

let eat_ident st =
  match kind st with
  | Tid | Tesc ->
    let s = name st in
    advance st;
    s
  | _ -> fail st "expected an identifier, found %s" (describe st)

(* Resynchronize after a syntax error: skip to just past the next ';',
   or stop before 'endmodule'/'module'/EOF. *)
let rec sync st =
  match kind st with
  | Teof | Kendmodule | Kmodule -> ()
  | Semi -> advance st
  | _ ->
    advance st;
    sync st

(* --- expressions --------------------------------------------------- *)

(* Binding power of a binary operator, loosest first; 0 for a token
   that is none. Every level is left-associative. *)
let precedence = function
  | BarBar -> 1
  | AmpAmp -> 2
  | Bar -> 3
  | Caret -> 4
  | Amp -> 5
  | EqEq | BangEq -> 6
  | Less | LessEq | Greater | GreaterEq -> 7
  | LessLess | GreaterGreater -> 8
  | Plus | Minus -> 9
  | Asterisk | Slash | Percent -> 10
  | _ -> 0

let binop = function
  | BarBar -> Lor | AmpAmp -> Land | Bar -> Bor | Caret -> Bxor | Amp -> Band
  | EqEq -> Eq | BangEq -> Neq | Less -> Lt | LessEq -> Le | Greater -> Gt | GreaterEq -> Ge
  | LessLess -> Shl | GreaterGreater -> Shr | Plus -> Add | Minus -> Sub | Asterisk -> Mul
  | Slash -> Div | _ (* Percent: [precedence] admits no other kind *) -> Mod

let rec parse_expr st =
  let c = parse_binary st 1 in
  if at st Quest then begin
    advance st;
    let t = parse_expr st in
    eat st Colon;
    let f = parse_expr st in
    Cond (c, t, f)
  end
  else c

(* Precedence climbing: the operands of an operator at level [p] bind
   tighter than [p]. *)
and parse_binary st min_prec = binary_rest st min_prec (parse_unary st)

and binary_rest st min_prec lhs =
  let k = kind st in
  let p = precedence k in
  if p >= min_prec then begin
    advance st;
    binary_rest st min_prec (Binop (binop k, lhs, parse_binary st (p + 1)))
  end
  else lhs

and parse_unary st =
  match kind st with
  | Tilde -> unary st Bnot
  | Bang -> unary st Lnot
  | Caret -> unary st Rxor
  | Minus -> unary st Neg
  | _ -> postfix st (parse_primary st)

and unary st op =
  advance st;
  Unop (op, parse_unary st)

and postfix st acc =
  if at st Lbrack then begin
    advance st;
    let a = parse_expr st in
    if at st Colon then begin
      advance st;
      let b = parse_expr st in
      eat st Rbrack;
      postfix st (Range (acc, a, b))
    end
    else begin
      eat st Rbrack;
      postfix st (Index (acc, a))
    end
  end
  else acc

and parse_primary st =
  match kind st with
  | Tnum ->
    let k = st.args.(st.pos) in
    advance st;
    let w = st.widths.(k) in
    Num ((if w < 0 then None else Some w), st.values.(k))
  | Tstr ->
    let s = name st in
    advance st;
    Str s
  | Tid | Tesc -> Ident (eat_ident st)
  | Lparen ->
    advance st;
    let e = parse_expr st in
    eat st Rparen;
    e
  | Lbrace ->
    advance st;
    let first = parse_expr st in
    if at st Lbrace then begin
      (* replication: {count{inner[, inner]*}} *)
      advance st;
      let inner = parse_list st [] in
      eat st Rbrace;
      eat st Rbrace;
      Repl (first, match inner with [ e ] -> e | es -> Concat es)
    end
    else begin
      let es =
        if at st Comma then begin
          advance st;
          parse_list st [ first ]
        end
        else [ first ]
      in
      eat st Rbrace;
      match es with [ e ] -> e | _ -> Concat es
    end
  | _ -> fail st "expected an expression, found %s" (describe st)

(* comma-separated expressions, appended to [acc] (reversed) *)
and parse_list st acc =
  let e = parse_expr st in
  if at st Comma then begin
    advance st;
    parse_list st (e :: acc)
  end
  else List.rev (e :: acc)

(* --- statements ---------------------------------------------------- *)

let rec parse_stmt st =
  match kind st with
  | Kbegin ->
    advance st;
    let rec go acc =
      if at st Kend then begin
        advance st;
        Block (List.rev acc)
      end
      else if at st Teof then fail st "unterminated begin/end block"
      else go (parse_stmt st :: acc)
    in
    go []
  | Kif ->
    advance st;
    eat st Lparen;
    let c = parse_expr st in
    eat st Rparen;
    let t = parse_stmt st in
    if at st Kelse then begin
      advance st;
      let f = parse_stmt st in
      If (c, t, Some f)
    end
    else If (c, t, None)
  | Kcase | Kcasez ->
    advance st;
    eat st Lparen;
    let scrut = parse_expr st in
    eat st Rparen;
    let rec arms acc dflt =
      match kind st with
      | Kendcase ->
        advance st;
        Case (scrut, List.rev acc, dflt)
      | Teof -> fail st "unterminated case"
      | Kdefault ->
        advance st;
        eat st Colon;
        let s = parse_stmt st in
        arms acc (Some s)
      | _ ->
        let ls = parse_list st [] in
        eat st Colon;
        let s = parse_stmt st in
        arms ((ls, s) :: acc) dflt
    in
    arms [] None
  | Tid when (name st).[0] = '$' ->
    let s = name st in
    advance st;
    let args =
      if at st Lparen then begin
        advance st;
        let rec go acc =
          if at st Rparen then begin
            advance st;
            List.rev acc
          end
          else begin
            let e = parse_expr st in
            if at st Comma then advance st;
            go (e :: acc)
          end
        in
        go []
      end
      else []
    in
    eat st Semi;
    Sys (s, args)
  | At ->
    advance st;
    eat st Lparen;
    let rec skip depth =
      match kind st with
      | Lparen ->
        advance st;
        skip (depth + 1)
      | Rparen ->
        advance st;
        if depth > 1 then skip (depth - 1)
      | Teof -> fail st "unterminated event control"
      | _ ->
        advance st;
        skip depth
    in
    skip 1;
    timed st
  | Hash ->
    advance st;
    if at st Tnum then advance st else fail st "expected a delay value after '#'";
    timed st
  | Semi ->
    advance st;
    Nop
  | k when k = Tid || k = Tesc || is_keyword k ->
    let lhs = eat_ident st in
    if at st LessEq then begin
      advance st;
      let rhs = parse_expr st in
      eat st Semi;
      Nonblocking (lhs, rhs)
    end
    else if at st Equal then begin
      advance st;
      let rhs = parse_expr st in
      eat st Semi;
      Blocking (lhs, rhs)
    end
    else fail st "expected '=' or '<=' in statement"
  | _ -> fail st "expected a statement, found %s" (describe st)

(* the statement after an [@(...)]/[#n] prefix *)
and timed st =
  if at st Semi then begin
    advance st;
    Timing None
  end
  else Timing (Some (parse_stmt st))

(* --- module items -------------------------------------------------- *)

let parse_range_opt st =
  if at st Lbrack then begin
    advance st;
    let msb = parse_expr st in
    eat st Colon;
    let lsb = parse_expr st in
    eat st Rbrack;
    Some (msb, lsb)
  end
  else None

(* [(.name(expr), ...)]: instance parameters and connections *)
let parse_named st =
  eat st Lparen;
  let rec go acc =
    if at st Rparen then begin
      advance st;
      List.rev acc
    end
    else begin
      eat st Dot;
      let p = eat_ident st in
      eat st Lparen;
      let v = parse_expr st in
      eat st Rparen;
      if at st Comma then advance st;
      go ((p, v) :: acc)
    end
  in
  go []

(* header parameter list: #(parameter [range] NAME = expr, ...) *)
let parse_header_params st =
  if not (at st Hash) then []
  else begin
    advance st;
    eat st Lparen;
    let rec go acc =
      if at st Rparen then begin
        advance st;
        List.rev acc
      end
      else begin
        eat st Kparameter;
        ignore (parse_range_opt st);
        let name = eat_ident st in
        eat st Equal;
        let v = parse_expr st in
        if at st Comma then advance st;
        go ((name, v) :: acc)
      end
    in
    go []
  end

let parse_ports st =
  eat st Lparen;
  let rec go acc dir preg prange =
    match kind st with
    | Rparen ->
      advance st;
      List.rev acc
    | Teof -> fail st "unterminated port list"
    | (Kinput | Koutput | Kinout) as d ->
      let line = line st in
      advance st;
      if d = Kinout then err st line "inout ports are not supported";
      let preg =
        if at st Kreg then begin
          advance st;
          true
        end
        else begin
          if at st Kwire then advance st;
          false
        end
      in
      let prange = parse_range_opt st in
      go acc (Some (if d = Kinput then Input else Output)) preg prange
    | _ -> (
      let line = line st in
      let name = eat_ident st in
      match dir with
      | None -> fail st "port %S has no direction (non-ANSI headers are not supported)" name
      | Some d ->
        let p = { dir = d; preg; prange; pname = name; pline = line } in
        if at st Comma then advance st;
        go (p :: acc) dir preg prange)
  in
  go [] None false None

let parse_instance st module_name iline =
  let params =
    if at st Hash then begin
      advance st;
      parse_named st
    end
    else []
  in
  let instance_name = eat_ident st in
  let conns = parse_named st in
  eat st Semi;
  Instance { module_name; params; instance_name; conns; iline }

let parse_item st =
  let line = line st in
  match kind st with
  | (Kwire | Kreg | Kinteger) as kw ->
    advance st;
    let drange = parse_range_opt st in
    let rec names acc =
      let n = eat_ident st in
      let init =
        if at st Equal then begin
          advance st;
          Some (parse_expr st)
        end
        else None
      in
      if at st Comma then begin
        advance st;
        names ((n, init) :: acc)
      end
      else List.rev ((n, init) :: acc)
    in
    let names = names [] in
    eat st Semi;
    [ Decl { dreg = kw <> Kwire; drange; names; dline = line } ]
  | Kassign ->
    advance st;
    let lhs = eat_ident st in
    eat st Equal;
    let rhs = parse_expr st in
    eat st Semi;
    [ Assign { lhs; rhs; aline = line } ]
  | Klocalparam ->
    advance st;
    let rec go acc =
      let name = eat_ident st in
      eat st Equal;
      let value = parse_expr st in
      let acc = Localparam { name; value; lline = line } :: acc in
      if at st Comma then begin
        advance st;
        go acc
      end
      else begin
        eat st Semi;
        List.rev acc
      end
    in
    go []
  | Kalways ->
    advance st;
    let trigger =
      if at st At then begin
        advance st;
        eat st Lparen;
        if at st Asterisk then begin
          advance st;
          eat st Rparen;
          Star
        end
        else begin
          eat st Kposedge;
          let clk = eat_ident st in
          eat st Rparen;
          Posedge clk
        end
      end
      else if at st Hash then begin
        advance st;
        if at st Tnum then begin
          let v = st.values.(st.args.(st.pos)) in
          advance st;
          Delay v
        end
        else fail st "expected a delay after 'always #'"
      end
      else fail st "expected '@(posedge ...)' or '#N' after 'always'"
    in
    let body = parse_stmt st in
    [ Always { trigger; body; bline = line } ]
  | Kinitial ->
    advance st;
    [ Initial (parse_stmt st) ]
  | Tid | Tesc ->
    let name = eat_ident st in
    [ parse_instance st name line ]
  | _ -> fail st "expected a module item, found %s" (describe st)

let parse_module st =
  let mline = line st in
  eat st Kmodule;
  let name = eat_ident st in
  let mparams = parse_header_params st in
  let ports = if at st Lparen then parse_ports st else [] in
  eat st Semi;
  let items = ref [] in
  let rec go () =
    match kind st with
    | Kendmodule -> advance st
    | Teof -> fail st "missing 'endmodule' for module %S" name
    | Kmodule ->
      (* no item starts with 'module' and [sync] stops before it: end
         this module here so the next one parses *)
      err st (line st) "missing 'endmodule' for module %S before the next module" name
    | _ ->
      (match parse_item st with
      | its -> items := List.rev_append its !items
      | exception Recover -> sync st);
      go ()
  in
  go ();
  { name; mparams; ports; items = List.rev !items; mline }

let parse ?max_errors ?file src =
  let collector = Diagnostic.collector ?max_errors () in
  if Inject.should_fire "rtl.parse" then
    Diagnostic.emit collector
      (Diagnostic.error ?file "injected fault at site rtl.parse");
  let diag line msg =
    Diagnostic.emit collector (Diagnostic.error ?file ~line msg)
  in
  let lx = lex ~diag src in
  let st =
    { kinds = lx.kinds; lines = lx.lines; args = lx.args; last = lx.ntoks - 1;
      names = lx.names.strs; widths = lx.widths; values = lx.values; pos = 0;
      collector; file }
  in
  let modules = ref [] in
  let rec go () =
    match kind st with
    | Teof -> ()
    | Kmodule ->
      (match parse_module st with
      | m -> modules := m :: !modules
      | exception Recover ->
        sync st;
        (* a failed module header leaves us before the next sync point;
           make progress unconditionally so the loop terminates *)
        if at st Kmodule then advance st);
      go ()
    | _ ->
      err st (line st) "expected \"module\", found %s" (describe st);
      advance st;
      sync st;
      go ()
  in
  go ();
  let diagnostics = Diagnostic.all collector in
  let nerrors =
    List.length
      (List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) diagnostics)
  in
  if nerrors > 0 then Telemetry.incr ~by:nerrors "rtl.parse_errors";
  { modules = List.rev !modules; diagnostics }

let errors t =
  List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) t.diagnostics
