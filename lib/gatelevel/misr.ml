(* XOR of the tapped state bits; a top-level loop, so clocking the
   register builds no closure. *)
let rec feedback s acc = function
  | [] -> acc
  | tap :: rest -> feedback s (acc lxor ((s lsr (tap - 1)) land 1)) rest

let clock ~width s word =
  let fb = feedback s 0 (Lfsr.primitive_taps width) in
  (((s lsl 1) lor fb) lxor word) land ((1 lsl width) - 1)
