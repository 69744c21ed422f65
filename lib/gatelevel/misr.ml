type t = { mask : int; taps : int list; mutable s : int }

let create ~width = { mask = (1 lsl width) - 1; taps = Lfsr.primitive_taps width; s = 0 }

(* XOR of the tapped state bits; a top-level loop, so clocking the
   register builds no closure. *)
let rec feedback s acc = function
  | [] -> acc
  | tap :: rest -> feedback s (acc lxor ((s lsr (tap - 1)) land 1)) rest

let next ~mask ~taps s word = (((s lsl 1) lor feedback s 0 taps) lxor word) land mask

let absorb t word = t.s <- next ~mask:t.mask ~taps:t.taps t.s word

let clock ~width s word =
  next ~mask:((1 lsl width) - 1) ~taps:(Lfsr.primitive_taps width) s word

let signature t = t.s

let run ~width words =
  let t = create ~width in
  List.iter (absorb t) words;
  signature t

let aliasing_probability ~width = 1.0 /. float_of_int (1 lsl width)
