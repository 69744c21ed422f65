type severity = Error | Warning | Note

type t = {
  severity : severity;
  file : string option;
  line : int option;
  message : string;
}

let make severity ?file ?line message = { severity; file; line; message }
let error ?file ?line message = make Error ?file ?line message
let warning ?file ?line message = make Warning ?file ?line message
let note ?file ?line message = make Note ?file ?line message

let errorf ?file ?line fmt = Format.kasprintf (fun m -> error ?file ?line m) fmt

let severity_label = function Error -> "error" | Warning -> "warning" | Note -> "note"

let to_string d =
  let loc =
    match (d.file, d.line) with
    | Some f, Some l -> Printf.sprintf "%s:%d: " f l
    | Some f, None -> Printf.sprintf "%s: " f
    | None, Some l -> Printf.sprintf "line %d: " l
    | None, None -> ""
  in
  Printf.sprintf "%s%s: %s" loc (severity_label d.severity) d.message

(* --- accumulation ---------------------------------------------------- *)

let default_max_errors = 20

type collector = {
  max_errors : int;
  mutable diags : t list;  (* reversed *)
  mutable n_errors : int;
  mutable dropped : int;
}

let collector ?(max_errors = default_max_errors) () =
  if max_errors < 1 then invalid_arg "Diagnostic.collector: max_errors must be >= 1";
  { max_errors; diags = []; n_errors = 0; dropped = 0 }

let emit c d =
  match d.severity with
  | Error ->
    if c.n_errors >= c.max_errors then c.dropped <- c.dropped + 1
    else begin
      c.n_errors <- c.n_errors + 1;
      c.diags <- d :: c.diags
    end
  | Warning | Note -> c.diags <- d :: c.diags

let errors c = c.n_errors

let all c =
  let l = List.rev c.diags in
  if c.dropped = 0 then l
  else
    l
    @ [
        note
          (Printf.sprintf "%d more error%s not shown (raise --max-errors to see them)"
             c.dropped
             (if c.dropped = 1 then "" else "s"));
      ]
