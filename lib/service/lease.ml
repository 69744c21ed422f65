module Json = Bistpath_util.Json
module Atomic_io = Bistpath_util.Atomic_io
module Inject = Bistpath_resilience.Inject

type t = { root : string }
type lease = { job : Job.t; attempts : int }

let pending_dir t = Filename.concat t.root "pending"
let claimed_root t = Filename.concat t.root "claimed"
let slot_dir t slot = Filename.concat (claimed_root t) (string_of_int slot)
let hb_dir t = Filename.concat t.root "hb"
let hb_path t slot = Filename.concat (hb_dir t) (string_of_int slot)
let eof_path t = Filename.concat t.root "eof"
let lease_file id = id ^ ".job"

let create ~root ~slots =
  if slots < 1 then invalid_arg "Lease.create: slots must be >= 1";
  let t = { root } in
  Atomic_io.mkdir_p (pending_dir t);
  Atomic_io.mkdir_p (hb_dir t);
  for slot = 0 to slots - 1 do
    Atomic_io.mkdir_p (slot_dir t slot)
  done;
  t

let list_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files -> Array.to_list files

let lease_files dir =
  list_dir dir
  |> List.filter (fun f -> Filename.check_suffix f ".job")
  |> List.sort compare

let slot_dirs t =
  list_dir (claimed_root t)
  |> List.filter_map int_of_string_opt
  |> List.sort compare

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let reset t =
  List.iter
    (fun dir -> List.iter (fun f -> remove_quiet (Filename.concat dir f)) (list_dir dir))
    (pending_dir t :: hb_dir t :: List.map (slot_dir t) (slot_dirs t));
  remove_quiet (eof_path t)

let lease_to_json l =
  Json.Obj
    [ ("job", Job.to_json l.job);
      ("attempts", Json.Num (float_of_int l.attempts)) ]

let lease_of_json json =
  match
    ( Option.map (Job.of_json ~default_id:"lease") (Json.member "job" json),
      Option.bind (Json.member "attempts" json) Json.to_int )
  with
  | Some (Ok job), Some attempts when attempts >= 0 -> Some { job; attempts }
  | _ -> None

let read_lease path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> Result.to_option (Json.parse text) |> Option.map lease_of_json |> Option.join

let submit t lease =
  Atomic_io.write_file
    (Filename.concat (pending_dir t) (lease_file lease.job.Job.id))
    (Json.to_string (lease_to_json lease) ^ "\n")

let claim t ~slot =
  let pend = pending_dir t in
  let rec try_files = function
    | [] -> None
    | f :: rest -> (
      let src = Filename.concat pend f in
      let dst = Filename.concat (slot_dir t slot) f in
      match
        Inject.fire_sys_error "fleet.claim";
        Unix.rename src dst
      with
      | () -> (
        match read_lease dst with
        | Some l -> Some l
        | None ->
          (* submit is atomic, so a half-written lease is impossible:
             an unparsable file is a foreign artifact — drop it *)
          remove_quiet dst;
          try_files rest)
      | exception Unix.Unix_error (_, _, _) ->
        (* ENOENT: lost the race to another claimant; anything else is
           transient — either way the pending file (if any) is intact *)
        try_files rest
      | exception Sys_error _ ->
        (* injected fleet.claim fault: skip this poll, lease untouched *)
        try_files rest)
  in
  try_files (lease_files pend)

let update t ~slot lease =
  Atomic_io.write_file
    (Filename.concat (slot_dir t slot) (lease_file lease.job.Job.id))
    (Json.to_string (lease_to_json lease) ^ "\n")

let release t ~slot id = remove_quiet (Filename.concat (slot_dir t slot) (lease_file id))

let return_ t ~slot lease =
  submit t lease;
  release t ~slot lease.job.Job.id

let held t ~slot =
  let dir = slot_dir t slot in
  lease_files dir |> List.filter_map (fun f -> read_lease (Filename.concat dir f))

let requeue t ~slot id =
  let src = Filename.concat (slot_dir t slot) (lease_file id) in
  let dst = Filename.concat (pending_dir t) (lease_file id) in
  try Unix.rename src dst with Unix.Unix_error (_, _, _) -> ()

let discard t ~slot id = release t ~slot id

let pending_count t = List.length (lease_files (pending_dir t))

let held_count t =
  List.fold_left
    (fun acc slot -> acc + List.length (lease_files (slot_dir t slot)))
    0 (slot_dirs t)

let mark_eof t = Atomic_io.write_file (eof_path t) ""
let eof t = Sys.file_exists (eof_path t)

let beat t ~slot =
  Inject.fire_sys_error "fleet.heartbeat";
  let path = hb_path t slot in
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  with
  | exception Unix.Unix_error (e, _, _) ->
    raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  | fd ->
    let close () = try Unix.close fd with Unix.Unix_error _ -> () in
    (match Unix.write_substring fd "beat\n" 0 5 with
    | _ -> close ()
    | exception Unix.Unix_error (e, _, _) ->
      close ();
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e))))

let beat_mtime t ~slot =
  match Unix.stat (hb_path t slot) with
  | s -> Some s.Unix.st_mtime
  | exception Unix.Unix_error _ -> None
