(* A fixed amount of work, timed between benchmark ops as a measure of
   the host's current speed: hashing, a balanced map, a sort and string
   building, the kinds of work synth does. It prints a checksum, so the
   work cannot be optimised away and a wrong build is caught. *)

module Int_map = Map.Make (Int)

let work () =
  let seed = ref 7919 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    !seed
  in
  let tbl = Hashtbl.create 1024 in
  for i = 0 to 5_000 do
    Hashtbl.replace tbl (next () land 0xffff) i
  done;
  let map = Hashtbl.fold Int_map.add tbl Int_map.empty in
  let keys = Int_map.fold (fun k v acc -> (k lxor v) :: acc) map [] in
  let buf = Buffer.create 4096 in
  List.iter (fun x -> Buffer.add_string buf (string_of_int x)) (List.sort compare keys);
  Hashtbl.hash (Buffer.contents buf)

(* [calib.exe 2] does the work on two domains at once, to measure the
   speed of both cores for programs that run a two-domain pool. *)
let () =
  let sum =
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "2" then begin
      let other = Domain.spawn work in
      let mine = work () in
      let theirs = Domain.join other in
      if mine <> theirs then exit 1;
      mine
    end
    else work ()
  in
  Printf.printf "%d\n" sum
