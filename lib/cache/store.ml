module Atomic_io = Bistpath_util.Atomic_io
module Telemetry = Bistpath_telemetry.Telemetry
module Inject = Bistpath_resilience.Inject

type t = { dir : string; max_bytes : int option }

let magic = "bistpath-cache"
let version = "1"

let mkdir_p = Atomic_io.mkdir_p

let objects_dir t = Filename.concat t.dir "objects"

let open_ ?max_mb ~dir () =
  let t = { dir; max_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_mb } in
  mkdir_p (objects_dir t);
  t

(* Keys are MD5 hex digests produced in-process; anything else (a
   corrupted journal replay, a hand-edited spec) must not be able to
   name a path outside the objects tree. *)
let valid_key key =
  String.length key = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       key

let object_path t key =
  if valid_key key then
    Some
      (Filename.concat
         (Filename.concat (objects_dir t) (String.sub key 0 2))
         (String.sub key 2 30))
  else None

let header ~stage ~payload =
  Printf.sprintf "%s %s %s %s %d" magic version stage
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

(* Entry = header line + raw payload; verify every header field and the
   payload digest so a truncated, swapped or bit-flipped entry is a
   miss, never a crash or a wrong answer. *)
let decode_entry ~stage text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl ->
    let payload = String.sub text (nl + 1) (String.length text - nl - 1) in
    if String.equal (String.sub text 0 nl) (header ~stage ~payload) then
      Some payload
    else None

let remove_corrupt path =
  Telemetry.incr "cache.corrupt";
  try Sys.remove path with Sys_error _ -> ()

let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

(* Open the object directly rather than probing [Sys.file_exists]
   first: a concurrent [gc] (ours or another process's delete-on-sight
   of a corrupt entry) may unlink the object at any moment, and an
   exists/open pair leaves a window where the open would raise. ENOENT
   at open is therefore an ordinary miss — the entry was evicted under
   us — and once the descriptor is open POSIX keeps the inode readable
   even if the file is unlinked mid-read, so the header and payload
   always come from one consistent entry. Only genuine I/O trouble
   (permissions, bad disk, an injected [cache.io] fault) counts into
   [cache.io_errors]. *)
let find t ~stage ~key =
  match object_path t key with
  | None -> None
  | Some path -> (
    match
      Inject.fire_sys_error "cache.io";
      Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
    with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
    | exception Unix.Unix_error (_, _, _) ->
      Telemetry.incr "cache.io_errors";
      None
    | exception Sys_error _ ->
      Telemetry.incr "cache.io_errors";
      None
    | fd -> (
      let ic = Unix.in_channel_of_descr fd in
      match In_channel.input_all ic with
      | exception Sys_error _ ->
        (try In_channel.close ic with Sys_error _ -> ());
        Telemetry.incr "cache.io_errors";
        None
      | text -> (
        (try In_channel.close ic with Sys_error _ -> ());
        match decode_entry ~stage text with
        | Some payload ->
          touch path;
          Some payload
        | None ->
          remove_corrupt path;
          None)))

(* --- volume accounting and eviction -------------------------------- *)

let entry_files t =
  let root = objects_dir t in
  let shards = try Sys.readdir root with Sys_error _ -> [||] in
  Array.to_list shards
  |> List.concat_map (fun shard ->
         let sd = Filename.concat root shard in
         if (try Sys.is_directory sd with Sys_error _ -> false) then
           let files = try Sys.readdir sd with Sys_error _ -> [||] in
           Array.to_list files
           |> List.filter_map (fun f ->
                  let path = Filename.concat sd f in
                  (* an entry may vanish under us (concurrent GC) *)
                  match Unix.stat path with
                  | exception Unix.Unix_error _ -> None
                  | st when st.Unix.st_kind = Unix.S_REG ->
                    Some (path, st.Unix.st_size, st.Unix.st_mtime)
                  | _ -> None)
         else [])

type stats = { entries : int; bytes : int }

let stats t =
  List.fold_left
    (fun acc (_, size, _) -> { entries = acc.entries + 1; bytes = acc.bytes + size })
    { entries = 0; bytes = 0 } (entry_files t)

let gc t ~max_bytes =
  let files = entry_files t in
  let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 files in
  if total <= max_bytes then 0
  else begin
    (* oldest mtime first; [find] touches entries it serves, so this is
       least-recently-used up to filesystem timestamp granularity *)
    let by_age =
      List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) files
    in
    let remaining = ref total and evicted = ref 0 in
    List.iter
      (fun (path, size, _) ->
        if !remaining > max_bytes then begin
          (try
             Sys.remove path;
             remaining := !remaining - size;
             incr evicted;
             Telemetry.incr "cache.evicted"
           with Sys_error _ -> ())
        end)
      by_age;
    !evicted
  end

let clear t =
  List.fold_left
    (fun acc (path, _, _) ->
      try
        Sys.remove path;
        acc + 1
      with Sys_error _ -> acc)
    0 (entry_files t)

let put t ~stage ~key payload =
  match object_path t key with
  | None -> ()
  | Some path -> (
    match
      Inject.fire_sys_error "cache.io";
      mkdir_p (Filename.dirname path);
      Atomic_io.write_file path (header ~stage ~payload ^ "\n" ^ payload)
    with
    | () ->
      Telemetry.incr "cache.store";
      (match t.max_bytes with
      | Some cap -> ignore (gc t ~max_bytes:cap)
      | None -> ())
    | exception Sys_error _ -> Telemetry.incr "cache.io_errors")
