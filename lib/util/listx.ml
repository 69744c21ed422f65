let pairs l =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
      let acc = List.fold_left (fun acc y -> (x, y) :: acc) acc rest in
      go acc rest
  in
  go [] l

let max_by f = function
  | [] -> None
  | x :: rest ->
    let best, _ =
      List.fold_left
        (fun (b, fb) y ->
          let fy = f y in
          if fy > fb then (y, fy) else (b, fb))
        (x, f x) rest
    in
    Some best

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

let group_by key l =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.add tbl (key x) (i, x)) l;
  let keys = List.sort_uniq compare (List.map key l) in
  let in_order k =
    let elems = Hashtbl.find_all tbl k in
    List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) elems)
  in
  List.map (fun k -> (k, in_order k)) keys

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let range lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (i :: acc) in
  go (hi - 1) []

let index_of p l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 l
