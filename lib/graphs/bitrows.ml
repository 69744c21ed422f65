type t = { words : int; bits : int array }

let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let of_adjacency adj =
  let words = (Array.length adj + 31) / 32 in
  let bits = Array.make (Array.length adj * words) 0 in
  Array.iteri
    (fun i row ->
      Array.iter
        (fun j ->
          let k = (i * words) + (j lsr 5) in
          bits.(k) <- bits.(k) lor (1 lsl (j land 31)))
        row)
    adj;
  { words; bits }

let common t i j =
  let n = ref 0 in
  for w = 0 to t.words - 1 do
    n := !n + popcount (t.bits.((i * t.words) + w) land t.bits.((j * t.words) + w))
  done;
  !n

let remove t i j =
  let k = (i * t.words) + (j lsr 5) in
  t.bits.(k) <- t.bits.(k) land lnot (1 lsl (j land 31))
