type t = { w : int; taps : int list; mutable s : int }

(* Primitive polynomial exponents over GF(2), one per width (from the
   standard tables, e.g. Xilinx XAPP052 / Press et al.): the feedback is
   the XOR of the listed bit positions. *)
let primitive_taps = function
  | 2 -> [ 2; 1 ]
  | 3 -> [ 3; 2 ]
  | 4 -> [ 4; 3 ]
  | 5 -> [ 5; 3 ]
  | 6 -> [ 6; 5 ]
  | 7 -> [ 7; 6 ]
  | 8 -> [ 8; 6; 5; 4 ]
  | 9 -> [ 9; 5 ]
  | 10 -> [ 10; 7 ]
  | 11 -> [ 11; 9 ]
  | 12 -> [ 12; 11; 10; 4 ]
  | 13 -> [ 13; 12; 11; 8 ]
  | 14 -> [ 14; 13; 12; 2 ]
  | 15 -> [ 15; 14 ]
  | 16 -> [ 16; 15; 13; 4 ]
  | 17 -> [ 17; 14 ]
  | 18 -> [ 18; 11 ]
  | 19 -> [ 19; 18; 17; 14 ]
  | 20 -> [ 20; 17 ]
  | 21 -> [ 21; 19 ]
  | 22 -> [ 22; 21 ]
  | 23 -> [ 23; 18 ]
  | 24 -> [ 24; 23; 22; 17 ]
  | 25 -> [ 25; 22 ]
  | 26 -> [ 26; 6; 2; 1 ]
  | 27 -> [ 27; 5; 2; 1 ]
  | 28 -> [ 28; 25 ]
  | 29 -> [ 29; 27 ]
  | 30 -> [ 30; 6; 4; 1 ]
  | 31 -> [ 31; 28 ]
  | 32 -> [ 32; 22; 2; 1 ]
  | w -> invalid_arg (Printf.sprintf "Lfsr.primitive_taps: unsupported width %d" w)

let create ~width ~seed =
  let taps = primitive_taps width in
  let mask = (1 lsl width) - 1 in
  let s = seed land mask in
  if s = 0 then invalid_arg "Lfsr.create: seed must be non-zero";
  { w = width; taps; s }

let step t =
  let fb =
    List.fold_left (fun acc tap -> acc lxor ((t.s lsr (tap - 1)) land 1)) 0 t.taps
  in
  t.s <- ((t.s lsl 1) lor fb) land ((1 lsl t.w) - 1);
  t.s

let period ~width = (1 lsl width) - 1
