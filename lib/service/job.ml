module Json = Bistpath_util.Json

type pipeline = Run | Pareto | Coverage | Rtl | Export | Check | Verify

type t = {
  id : string;
  spec : string;
  pipeline : pipeline;
  width : int;
  flow : string;
  transparency : bool;
  patterns : int;
  timeout_s : float option;
  leaf_budget : int option;
}

let pipeline_name = function
  | Run -> "run"
  | Pareto -> "pareto"
  | Coverage -> "coverage"
  | Rtl -> "rtl"
  | Export -> "export"
  | Check -> "check"
  | Verify -> "verify"

let pipeline_of_name = function
  | "run" -> Some Run
  | "pareto" -> Some Pareto
  | "coverage" -> Some Coverage
  | "rtl" -> Some Rtl
  | "export" -> Some Export
  | "check" -> Some Check
  | "verify" -> Some Verify
  | _ -> None

let id_ok id =
  String.length id > 0
  && String.length id <= 128
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       id
  (* ".." alone would still be a path component *)
  && not (String.for_all (Char.equal '.') id)

let known_fields =
  [ "id"; "spec"; "pipeline"; "width"; "flow"; "transparency"; "patterns";
    "timeout"; "leaf_budget" ]

let of_json ~default_id json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj fields ->
    let* () =
      match List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields with
      | Some (k, _) ->
        Error
          (Printf.sprintf "unknown field %S (known: %s)" k
             (String.concat ", " known_fields))
      | None -> Ok ()
    in
    let field name conv what =
      match Json.member name json with
      | None -> Ok None
      | Some v -> (
        match conv v with
        | Some x -> Ok (Some x)
        | None -> Error (Printf.sprintf "field %S must be %s" name what))
    in
    let* id = field "id" Json.to_str "a string" in
    let id = Option.value id ~default:default_id in
    let* () =
      if id_ok id then Ok ()
      else Error (Printf.sprintf "bad job id %S (want [A-Za-z0-9._-]+)" id)
    in
    let* spec = field "spec" Json.to_str "a string" in
    let* spec =
      match spec with
      | Some s when String.length s > 0 -> Ok s
      | Some _ -> Error "field \"spec\" must be non-empty"
      | None -> Error "missing required field \"spec\""
    in
    let* pname = field "pipeline" Json.to_str "a string" in
    let* pipeline =
      match pname with
      | None -> Ok Run
      | Some s -> (
        match pipeline_of_name s with
        | Some p -> Ok p
        | None ->
          Error
            (Printf.sprintf
               "unknown pipeline %S (want run|pareto|coverage|rtl|export|check|verify)" s))
    in
    let* width = field "width" Json.to_int "an integer" in
    let width = Option.value width ~default:8 in
    let* () = if width >= 1 then Ok () else Error "field \"width\" must be >= 1" in
    let* flow = field "flow" Json.to_str "a string" in
    let flow = Option.value flow ~default:"testable" in
    let* () =
      match Bistpath_core.Flow.parse_style flow with
      | Ok _ -> Ok ()
      | Error _ -> Error (Printf.sprintf "unknown flow %S (want testable or traditional)" flow)
    in
    let* transparency = field "transparency" Json.to_bool "a boolean" in
    let transparency = Option.value transparency ~default:false in
    let* patterns = field "patterns" Json.to_int "an integer" in
    let patterns = Option.value patterns ~default:255 in
    let* () = if patterns >= 1 then Ok () else Error "field \"patterns\" must be >= 1" in
    let* timeout_s = field "timeout" Json.to_num "a number" in
    let* () =
      match timeout_s with
      | Some s when s <= 0.0 -> Error "field \"timeout\" must be > 0"
      | _ -> Ok ()
    in
    let* leaf_budget = field "leaf_budget" Json.to_int "an integer" in
    let* () =
      match leaf_budget with
      | Some n when n < 1 -> Error "field \"leaf_budget\" must be >= 1"
      | _ -> Ok ()
    in
    Ok { id; spec; pipeline; width; flow; transparency; patterns; timeout_s; leaf_budget }
  | _ -> Error "job spec must be a JSON object"

let parse_line ~default_id line =
  match Json.parse line with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok json -> of_json ~default_id json

let to_json t =
  Json.Obj
    ([
       ("id", Json.Str t.id);
       ("spec", Json.Str t.spec);
       ("pipeline", Json.Str (pipeline_name t.pipeline));
       ("width", Json.Num (float_of_int t.width));
       ("flow", Json.Str t.flow);
       ("transparency", Json.Bool t.transparency);
       ("patterns", Json.Num (float_of_int t.patterns));
     ]
    @ (match t.timeout_s with Some s -> [ ("timeout", Json.Num s) ] | None -> [])
    @
    match t.leaf_budget with
    | Some n -> [ ("leaf_budget", Json.Num (float_of_int n)) ]
    | None -> [])

let class_of t = pipeline_name t.pipeline
