type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create columns =
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let width t = List.length t.headers

let add_row t cells =
  if List.length cells <> width t then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" (width t)
         (List.length cells));
  t.rows <- cells :: t.rows

let to_string t =
  let rows = List.rev t.rows in
  let all_cell_rows = t.headers :: rows in
  let widths =
    List.mapi
      (fun i _ ->
        List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) 0 all_cell_rows)
      t.headers
  in
  let pad align w s =
    let n = w - String.length s in
    if n <= 0 then s
    else
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
  in
  let render_cells cells =
    let padded = List.mapi (fun i c -> pad (List.nth t.aligns i) (List.nth widths i) c) cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|"
  in
  String.concat "\n" (render_cells t.headers :: rule :: List.map render_cells rows)
