type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  (* 53 random bits, the mantissa width of a double *)
  Int64.to_float r /. 9007199254740992.0 *. bound

(* Splitting draws one value from the parent (advancing it by exactly one
   step) and pushes it through a second, different finalizer — the
   MurmurHash3 fmix64 constants — so the child's state cannot coincide
   with any state the parent's own golden-ratio walk visits for the same
   low-order trajectory. This is the split construction of the SplitMix64
   paper, specialized to our fixed-gamma generator. *)
let split t =
  let z = next_int64 t in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  { state = z }
