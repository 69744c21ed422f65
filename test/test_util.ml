(* Tests for Bistpath_util: PRNG, list helpers, table rendering. *)

module Prng = Prng_ext
module Listx = Bistpath_util.Listx
module Table = Bistpath_util.Table

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 10 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Prng.next_int64 b) in
  check Alcotest.bool "different seeds differ" true (xs <> ys)

let prng_int_bounds () =
  let t = Prng.create 11 in
  for _ = 1 to 1000 do
    let x = Prng.int t 7 in
    check Alcotest.bool "in [0,7)" true (x >= 0 && x < 7)
  done

let prng_int_invalid () =
  let t = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let prng_float_bounds () =
  let t = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.float t 2.5 in
    check Alcotest.bool "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let prng_shuffle_permutes () =
  let t = Prng.create 9 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 50 Fun.id) sorted

let prng_pick_member () =
  let t = Prng.create 13 in
  for _ = 1 to 100 do
    let x = Prng.pick t [ 1; 2; 3 ] in
    check Alcotest.bool "member" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Prng.pick: empty list") (fun () ->
      ignore (Prng.pick t []))

let prng_split_vectors () =
  (* reference vectors documented in prng.mli *)
  let t = Prng.create 42 in
  let c = Prng.split t in
  check Alcotest.int64 "child's first draw" 0x2559B167601B8DD1L (Prng.next_int64 c);
  check Alcotest.int64 "parent continues" 0x28EFE333B266F103L (Prng.next_int64 t);
  (* split consumes exactly one parent draw *)
  let t' = Prng.create 42 in
  ignore (Prng.next_int64 t');
  check Alcotest.int64 "parent advanced by one draw" 0x28EFE333B266F103L
    (Prng.next_int64 t')

let prng_split_deterministic_and_independent () =
  let a = Prng.create 9 and b = Prng.create 9 in
  let ca = Prng.split a and cb = Prng.split b in
  for _ = 1 to 50 do
    check Alcotest.int64 "same split, same stream" (Prng.next_int64 ca)
      (Prng.next_int64 cb)
  done;
  (* child and parent streams diverge *)
  let t = Prng.create 17 in
  let c = Prng.split t in
  let child = List.init 20 (fun _ -> Prng.next_int64 c) in
  let parent = List.init 20 (fun _ -> Prng.next_int64 t) in
  check Alcotest.bool "streams differ" true (child <> parent);
  (* sequential splits from one root give pairwise different streams *)
  let root = Prng.create 1 in
  let firsts =
    List.init 32 (fun _ -> Prng.next_int64 (Prng.split root))
  in
  check Alcotest.int "32 distinct first draws" 32
    (List.length (List.sort_uniq compare firsts))

let prng_uniformity () =
  (* crude chi-square-ish check: each of 8 buckets within 3x of expected *)
  let t = Prng.create 123 in
  let buckets = Array.make 8 0 in
  let n = 8000 in
  for _ = 1 to n do
    let b = Prng.int t 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket within bounds" true (c > n / 8 / 3 && c < n / 8 * 3))
    buckets

let prng_float_mean () =
  let t = Prng.create 7 in
  let n = 10_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float t 1.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 0.5" true (mean > 0.45 && mean < 0.55)

let listx_pairs () =
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "pairs of 4" [ (1, 2); (1, 3); (2, 3) ]
    (Listx.pairs [ 1; 2; 3 ] |> List.sort compare);
  check Alcotest.int "n choose 2" 10 (List.length (Listx.pairs [ 1; 2; 3; 4; 5 ]));
  check Alcotest.int "empty" 0 (List.length (Listx.pairs ([] : int list)))

let listx_max_by () =
  check (Alcotest.option Alcotest.int) "max" (Some 9) (Listx.max_by Fun.id [ 3; 9; 1 ]);
  check (Alcotest.option Alcotest.int) "first on tie" (Some 3)
    (Listx.max_by (fun _ -> 0) [ 3; 9; 1 ]);
  check (Alcotest.option Alcotest.int) "empty" None (Listx.max_by Fun.id [])

let listx_sum_by () =
  check Alcotest.int "sum" 6 (Listx.sum_by Fun.id [ 1; 2; 3 ]);
  check Alcotest.int "empty" 0 (Listx.sum_by Fun.id [])

let listx_group_by () =
  let groups = Listx.group_by (fun x -> x mod 2) [ 1; 2; 3; 4; 5 ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int)))
    "groups sorted by key, members in order"
    [ (0, [ 2; 4 ]); (1, [ 1; 3; 5 ]) ]
    groups

let listx_take () =
  check (Alcotest.list Alcotest.int) "take 2" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  check (Alcotest.list Alcotest.int) "take more than length" [ 1 ] (Listx.take 5 [ 1 ]);
  check (Alcotest.list Alcotest.int) "take 0" [] (Listx.take 0 [ 1; 2 ])

let listx_range () =
  check (Alcotest.list Alcotest.int) "range" [ 2; 3; 4 ] (Listx.range 2 5);
  check (Alcotest.list Alcotest.int) "empty range" [] (Listx.range 5 5)

let listx_index_of () =
  check (Alcotest.option Alcotest.int) "found" (Some 1)
    (Listx.index_of (fun x -> x = 5) [ 4; 5; 6 ]);
  check (Alcotest.option Alcotest.int) "missing" None
    (Listx.index_of (fun x -> x = 9) [ 4; 5; 6 ])

let table_renders () =
  let t = Table.create [ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.to_string t in
  check Alcotest.bool "contains header" true
    (String.length s > 0
    && List.exists (fun line -> String.length line > 0) (String.split_on_char '\n' s));
  (* alignment: numbers right-aligned means "22" is flush right *)
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "4 lines (header, rule, 2 rows)" 4 (List.length lines);
  List.iter
    (fun line -> check Alcotest.int "equal widths" (String.length (List.hd lines)) (String.length line))
    lines

let table_arity_checked () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: expected 1 cells, got 2") (fun () ->
      Table.add_row t [ "x"; "y" ])

let suite =
  [
    case "prng deterministic" prng_deterministic;
    case "prng seed sensitivity" prng_seed_sensitivity;
    case "prng int bounds" prng_int_bounds;
    case "prng int invalid" prng_int_invalid;
    case "prng float bounds" prng_float_bounds;
    case "prng shuffle permutes" prng_shuffle_permutes;
    case "prng pick" prng_pick_member;
    case "prng split vectors" prng_split_vectors;
    case "prng split deterministic, independent" prng_split_deterministic_and_independent;
    case "prng uniformity" prng_uniformity;
    case "prng float mean" prng_float_mean;
    case "listx pairs" listx_pairs;
    case "listx max_by" listx_max_by;
    case "listx sum_by" listx_sum_by;
    case "listx group_by" listx_group_by;
    case "listx take" listx_take;
    case "listx range" listx_range;
    case "listx index_of" listx_index_of;
    case "table renders aligned" table_renders;
    case "table arity checked" table_arity_checked;
  ]
