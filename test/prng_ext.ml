(* The library's generator plus the draws only the tests use. *)

include Bistpath_util.Prng

(* Fisher-Yates, in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Uniform element of a non-empty list. Raises [Invalid_argument] on []. *)
let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | l -> List.nth l (int t (List.length l))
