module Lifetime = Bistpath_dfg.Lifetime
module Interval = Bistpath_graphs.Interval

type t = { classes : (string * string list) list }

let make classes =
  let ids = List.map fst classes in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Regalloc.make: duplicate register id";
  List.iter
    (fun (rid, vars) ->
      if vars = [] then invalid_arg (Printf.sprintf "Regalloc.make: register %s is empty" rid))
    classes;
  let all = List.concat_map snd classes in
  if List.length (List.sort_uniq compare all) <> List.length all then
    invalid_arg "Regalloc.make: variable allocated twice";
  { classes = List.map (fun (rid, vars) -> (rid, List.sort compare vars)) classes }

let register_of t v =
  List.find_opt (fun (_, vars) -> List.mem v vars) t.classes |> Option.map fst

let num_registers t = List.length t.classes

let variables t = List.sort compare (List.concat_map snd t.classes)

let is_valid_for t dfg ~policy =
  let spans = Lifetime.spans ~policy dfg in
  List.sort compare (List.map fst spans) = variables t
  &&
  let span = Hashtbl.create 64 in
  List.iter (fun (v, s) -> Hashtbl.replace span v s) spans;
  List.for_all
    (fun (_, vars) ->
      Bistpath_util.Listx.pairs vars
      |> List.for_all (fun (u, v) ->
             not (Interval.overlap (Hashtbl.find span u) (Hashtbl.find span v))))
    t.classes

let pp ppf t =
  Format.pp_print_list ~pp_sep:Format.pp_print_space
    (fun ppf (rid, vars) ->
      Format.fprintf ppf "%s={%s}" rid (String.concat "," vars))
    ppf t.classes
