module Json = Bistpath_util.Json
module Atomic_io = Bistpath_util.Atomic_io
module Inject = Bistpath_resilience.Inject

type event =
  | Accept of Job.t
  | Start of { id : string; attempt : int }
  | Done of {
      id : string;
      attempt : int;
      status : string;
      reason : string option;
      cache : string option;
    }
  | Fail of { id : string; attempt : int; error : string }
  | Give_up of { id : string; error : string }
  | Interrupted of { id : string; attempt : int }
  | Drain

type t = { fd : Unix.file_descr; path : string }

let event_to_json = function
  | Accept job -> Json.Obj [ ("ev", Json.Str "accept"); ("job", Job.to_json job) ]
  | Start { id; attempt } ->
    Json.Obj
      [ ("ev", Json.Str "start"); ("id", Json.Str id);
        ("attempt", Json.Num (float_of_int attempt)) ]
  | Done { id; attempt; status; reason; cache } ->
    Json.Obj
      ([ ("ev", Json.Str "done"); ("id", Json.Str id);
         ("attempt", Json.Num (float_of_int attempt)); ("status", Json.Str status) ]
      @ (match reason with Some r -> [ ("reason", Json.Str r) ] | None -> [])
      @ match cache with Some c -> [ ("cache", Json.Str c) ] | None -> [])
  | Fail { id; attempt; error } ->
    Json.Obj
      [ ("ev", Json.Str "fail"); ("id", Json.Str id);
        ("attempt", Json.Num (float_of_int attempt)); ("error", Json.Str error) ]
  | Give_up { id; error } ->
    Json.Obj
      [ ("ev", Json.Str "give_up"); ("id", Json.Str id); ("error", Json.Str error) ]
  | Interrupted { id; attempt } ->
    Json.Obj
      [ ("ev", Json.Str "interrupted"); ("id", Json.Str id);
        ("attempt", Json.Num (float_of_int attempt)) ]
  | Drain -> Json.Obj [ ("ev", Json.Str "drain") ]

let event_of_json json =
  let ( let* ) = Result.bind in
  let str name =
    match Option.bind (Json.member name json) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing/bad field %S" name)
  in
  let int name =
    match Option.bind (Json.member name json) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing/bad field %S" name)
  in
  let* ev = str "ev" in
  match ev with
  | "accept" -> (
    match Json.member "job" json with
    | None -> Error "accept record without job"
    | Some j ->
      let* job =
        (* the journal's own records always carry an explicit id *)
        Job.of_json ~default_id:"journal" j
      in
      Ok (Accept job))
  | "start" ->
    let* id = str "id" in
    let* attempt = int "attempt" in
    Ok (Start { id; attempt })
  | "done" ->
    let* id = str "id" in
    let* attempt = int "attempt" in
    let* status = str "status" in
    let reason = Option.bind (Json.member "reason" json) Json.to_str in
    (* absent in journals written before result caching existed: old
       files replay unchanged *)
    let cache = Option.bind (Json.member "cache" json) Json.to_str in
    Ok (Done { id; attempt; status; reason; cache })
  | "fail" ->
    let* id = str "id" in
    let* attempt = int "attempt" in
    let* error = str "error" in
    Ok (Fail { id; attempt; error })
  | "give_up" ->
    let* id = str "id" in
    let* error = str "error" in
    Ok (Give_up { id; error })
  | "interrupted" ->
    let* id = str "id" in
    let* attempt = int "attempt" in
    Ok (Interrupted { id; attempt })
  | "drain" -> Ok Drain
  | s -> Error (Printf.sprintf "unknown journal event %S" s)

let unix_sys_error path e =
  raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

(* A crash mid-append (SIGKILL between the [write] and the next one)
   can leave a final record with no trailing newline. replay tolerates
   that torn tail — but only while it stays final: appending onto it
   would weld the new record to the partial line, and the merged
   garbage then sits mid-file where every later replay raises "corrupt
   journal record". Repair before the first append: a parsable
   unterminated final line just gets its missing newline; unparsable
   torn bytes are truncated away (replay already ignores them, so no
   replayed state changes). *)
let repair_tail path =
  if Sys.file_exists path then begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length text in
    if n > 0 && text.[n - 1] <> '\n' then begin
      let cut =
        match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0
      in
      let tail = String.sub text cut (n - cut) in
      let parsable =
        match Result.bind (Json.parse tail) event_of_json with
        | Ok _ -> true
        | Error _ -> false
      in
      match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644 with
      | exception Unix.Unix_error (e, _, _) -> unix_sys_error path e
      | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match
              if parsable then begin
                ignore (Unix.lseek fd 0 Unix.SEEK_END);
                Atomic_io.fsync_append fd "\n"
              end
              else begin
                Unix.ftruncate fd cut;
                try Unix.fsync fd with Unix.Unix_error _ -> ()
              end
            with
            | () -> ()
            | exception Unix.Unix_error (e, _, _) -> unix_sys_error path e)
    end
  end

let open_ path =
  repair_tail path;
  match
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  with
  | fd -> { fd; path }
  | exception Unix.Unix_error (e, _, _) -> unix_sys_error path e

let append t ev =
  Inject.fire_sys_error "service.journal";
  Atomic_io.fsync_append t.fd (Json.to_string (event_to_json ev) ^ "\n")

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let replay path =
  if not (Sys.file_exists path) then []
  else begin
    let text = In_channel.with_open_text path In_channel.input_all in
    let lines = String.split_on_char '\n' text in
    (* drop the final "" from a trailing newline; anything after the
       last newline is a torn append and may legitimately fail to
       parse *)
    let rec parse acc = function
      | [] -> List.rev acc
      | [ last ] -> (
        if String.trim last = "" then List.rev acc
        else
          match Result.bind (Json.parse last) event_of_json with
          | Ok ev -> List.rev (ev :: acc)
          | Error _ -> List.rev acc (* torn final record: crash mid-append *))
      | line :: rest -> (
        if String.trim line = "" then parse acc rest
        else
          match Result.bind (Json.parse line) event_of_json with
          | Ok ev -> parse (ev :: acc) rest
          | Error e ->
            raise (Sys_error (Printf.sprintf "%s: corrupt journal record: %s" path e)))
    in
    parse [] lines
  end

(* --- fleet journal shards ------------------------------------------ *)

let shard_path path slot =
  if slot < 0 then invalid_arg "Journal.shard_path: slot must be >= 0";
  Printf.sprintf "%s.shard%d" path slot

let shards path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let prefix = base ^ ".shard" in
  let plen = String.length prefix in
  let is_shard f =
    String.length f > plen
    && String.sub f 0 plen = prefix
    && String.for_all (function '0' .. '9' -> true | _ -> false)
         (String.sub f plen (String.length f - plen))
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files |> List.filter is_shard
    |> List.sort (fun a b ->
           compare
             (int_of_string (String.sub a plen (String.length a - plen)))
             (int_of_string (String.sub b plen (String.length b - plen))))
    |> List.map (Filename.concat dir)

(* Event order across shards is unavailable (each worker fsyncs its own
   file), but the per-job state {!fold_state} derives is order-free
   between shards: a job's accept lives in the supervisor journal, and
   its start/done/fail counts commute. A torn tail in one shard is
   repaired/ignored locally by [replay] and cannot poison jobs
   journaled in the other shards. *)
let replay_merged path =
  List.concat_map replay (path :: shards path)

type job_state = { job : Job.t; attempts : int; terminal : bool }

(* The journal records decisions; it does not make them. So the fold
   needs no retry budget, and a [fail] record changes no state: the
   give-up that follows a final failure is a record of its own. *)
let replay_policy = { Transition.max_attempts = max_int; retry_base_ms = 0.0 }

let fold_state events =
  let order = ref [] in
  let tbl : (string, job_state) Hashtbl.t = Hashtbl.create 16 in
  let step id ev =
    match Hashtbl.find_opt tbl id with
    | None -> () (* record for a job we never saw accepted: ignore *)
    | Some js ->
      let s, _ =
        Transition.step replay_policy
          { Transition.attempts = js.attempts; terminal = js.terminal }
          ev
      in
      Hashtbl.replace tbl id { js with attempts = s.attempts; terminal = s.terminal }
  in
  List.iter
    (fun ev ->
      match ev with
      | Accept job ->
        if not (Hashtbl.mem tbl job.Job.id) then begin
          Hashtbl.replace tbl job.Job.id { job; attempts = 0; terminal = false };
          order := job.Job.id :: !order
        end
      | Start { id; _ } -> step id Transition.Start
      | Done { id; reason; _ } -> step id Transition.(Finished (Completed reason))
      | Give_up { id; error } -> step id Transition.(Finished (Invalid error))
      | Interrupted { id; _ } -> step id Transition.Interrupted
      | Fail _ | Drain -> ())
    events;
  List.rev_map (fun id -> Hashtbl.find tbl id) !order
