module Op = Bistpath_dfg.Op
module B = Circuit.Builder

let check_width width = if width < 1 then invalid_arg "Library: width must be >= 1"

(* Full adder over nets: returns (sum, carry). *)
let full_adder b x y cin =
  let s1 = B.gate b Circuit.Xor [ x; y ] in
  let sum = B.gate b Circuit.Xor [ s1; cin ] in
  let c1 = B.gate b Circuit.And [ x; y ] in
  let c2 = B.gate b Circuit.And [ s1; cin ] in
  let carry = B.gate b Circuit.Or [ c1; c2 ] in
  (sum, carry)

(* Ripple addition of two equal-length nets lists, LSB first. *)
let ripple b xs ys cin =
  let rec go xs ys carry acc =
    match (xs, ys) with
    | [], [] -> (List.rev acc, carry)
    | x :: xs, y :: ys ->
      let sum, carry = full_adder b x y carry in
      go xs ys carry (sum :: acc)
    | _ -> invalid_arg "Library.ripple: width mismatch"
  in
  go xs ys cin []

(* Ripple addition whose final carry is discarded: the top position gets
   a sum-only cell (two XORs), so no unobservable carry logic is built.
   Used by the truncated multiplier rows. *)
let ripple_truncated b xs ys cin =
  let rec go xs ys carry acc =
    match (xs, ys) with
    | [], [] -> List.rev acc
    | [ x ], [ y ] ->
      let s1 = B.gate b Circuit.Xor [ x; y ] in
      let sum = B.gate b Circuit.Xor [ s1; carry ] in
      List.rev (sum :: acc)
    | x :: xs, y :: ys ->
      let sum, carry = full_adder b x y carry in
      go xs ys carry (sum :: acc)
    | _ -> invalid_arg "Library.ripple_truncated: width mismatch"
  in
  go xs ys cin []

let ripple_adder ~width =
  check_width width;
  let b = B.create (Printf.sprintf "add%d" width) in
  let a = B.inputs b width in
  let bb = B.inputs b width in
  let zero = B.const0 b in
  let sums, carry = ripple b a bb zero in
  List.iter (B.output b) sums;
  B.output b carry;
  B.finish b

(* a - b = a + ~b + 1; borrow = NOT carry-out. *)
let sub_nets b xs ys =
  let nys = List.map (fun y -> B.gate b Circuit.Not [ y ]) ys in
  let one = B.const1 b in
  let sums, carry = ripple b xs nys one in
  let borrow = B.gate b Circuit.Not [ carry ] in
  (sums, borrow)

let subtractor ~width =
  check_width width;
  let b = B.create (Printf.sprintf "sub%d" width) in
  let a = B.inputs b width in
  let bb = B.inputs b width in
  let diff, borrow = sub_nets b a bb in
  List.iter (B.output b) diff;
  B.output b borrow;
  B.finish b

let array_multiplier ~width =
  check_width width;
  let b = B.create (Printf.sprintf "mul%d" width) in
  let a = Array.of_list (B.inputs b width) in
  let bb = Array.of_list (B.inputs b width) in
  let zero = B.const0 b in
  (* Accumulate rows: acc holds the low bits of the running sum; since
     the result is truncated to [width] bits, row i only contributes to
     positions i..width-1. *)
  let acc = Array.make width zero in
  for i = 0 to width - 1 do
    (* Partial product of row i occupies positions i .. width-1 only;
       adding the untouched low positions would create redundant
       (untestable) adder cells fed by constant zeros. *)
    let pp = Array.init (width - i) (fun j -> B.gate b Circuit.And [ a.(j); bb.(i) ]) in
    if i = 0 then Array.blit pp 0 acc 0 width
    else begin
      let high = Array.to_list (Array.sub acc i (width - i)) in
      let sums = ripple_truncated b high (Array.to_list pp) zero in
      List.iteri (fun k s -> acc.(i + k) <- s) sums
    end
  done;
  Array.iter (B.output b) acc;
  B.finish b

let logic_unit kind ~width =
  check_width width;
  let gk =
    match kind with
    | Circuit.And | Circuit.Or | Circuit.Xor -> kind
    | Circuit.Nand | Circuit.Nor | Circuit.Xnor | Circuit.Not | Circuit.Buf ->
      invalid_arg "Library.logic_unit: expected And, Or or Xor"
  in
  let b = B.create "logic" in
  let a = B.inputs b width in
  let bb = B.inputs b width in
  List.iter2 (fun x y -> B.output b (B.gate b gk [ x; y ])) a bb;
  B.finish b

(* Dedicated magnitude comparator chain (lt_i depends on bit i and
   lt_{i-1}); building it from a subtractor would leave the unused
   difference bits' logic untestable. *)
let less_chain b xs ys =
  List.fold_left2
    (fun lt x y ->
      let nx = B.gate b Circuit.Not [ x ] in
      let here = B.gate b Circuit.And [ nx; y ] in
      let eq = B.gate b Circuit.Xnor [ x; y ] in
      let keep = B.gate b Circuit.And [ eq; lt ] in
      B.gate b Circuit.Or [ here; keep ])
    (B.const0 b) xs ys

let comparator_less ~width =
  check_width width;
  let b = B.create (Printf.sprintf "lt%d" width) in
  let a = B.inputs b width in
  let bb = B.inputs b width in
  B.output b (less_chain b a bb);
  B.finish b

let mux2 b sel x y =
  (* sel=0 -> x, sel=1 -> y *)
  let ns = B.gate b Circuit.Not [ sel ] in
  let gx = B.gate b Circuit.And [ ns; x ] in
  let gy = B.gate b Circuit.And [ sel; y ] in
  B.gate b Circuit.Or [ gx; gy ]

let array_divider ~width =
  check_width width;
  let b = B.create (Printf.sprintf "div%d" width) in
  let a = Array.of_list (B.inputs b width) in
  let bb = B.inputs b width in
  let zero = B.const0 b in
  (* Restoring division, one row per quotient bit, MSB first. The
     partial remainder has width+1 bits to absorb the shifted-in bit. *)
  let divisor = bb @ [ zero ] in
  let rem = ref (List.init (width + 1) (fun _ -> zero)) in
  let quotient = Array.make width zero in
  for i = width - 1 downto 0 do
    (* shift left by one, inserting a_i at the bottom; drop the top bit
       (restoring division keeps the remainder < divisor so the dropped
       bit is always zero when the divisor is non-zero). *)
    let shifted =
      a.(i) :: Bistpath_util.Listx.take width !rem
    in
    let trial, borrow = sub_nets b shifted divisor in
    let q = B.gate b Circuit.Not [ borrow ] in
    quotient.(i) <- q;
    (* borrow=0: subtraction succeeded, keep the trial difference;
       borrow=1: restore the shifted remainder. *)
    rem := List.map2 (fun t s -> mux2 b borrow t s) trial shifted
  done;
  Array.iter (B.output b) quotient;
  B.finish b

let of_kind kind ~width =
  match kind with
  | Op.Add -> ripple_adder ~width
  | Op.Sub -> subtractor ~width
  | Op.Mul -> array_multiplier ~width
  | Op.Div -> array_divider ~width
  | Op.And -> logic_unit Circuit.And ~width
  | Op.Or -> logic_unit Circuit.Or ~width
  | Op.Xor -> logic_unit Circuit.Xor ~width
  | Op.Less -> comparator_less ~width

(* The ALU instantiates each sub-unit's logic inline over shared operand
   nets and muxes result bits with a one-hot select. *)
let alu kinds ~width =
  check_width width;
  if kinds = [] then invalid_arg "Library.alu: no kinds";
  let b = B.create "alu" in
  let a = B.inputs b width in
  let bb = B.inputs b width in
  let selects = B.inputs b (List.length kinds) in
  let zero = B.const0 b in
  let result_of kind =
    match kind with
    | Op.Add -> fst (ripple b a bb zero)
    | Op.Sub -> fst (sub_nets b a bb)
    | Op.And -> List.map2 (fun x y -> B.gate b Circuit.And [ x; y ]) a bb
    | Op.Or -> List.map2 (fun x y -> B.gate b Circuit.Or [ x; y ]) a bb
    | Op.Xor -> List.map2 (fun x y -> B.gate b Circuit.Xor [ x; y ]) a bb
    | Op.Less -> less_chain b a bb :: List.init (width - 1) (fun _ -> zero)
    | Op.Mul ->
      (* inline truncated array multiplier (same pruned rows as above) *)
      let aa = Array.of_list a and ba = Array.of_list bb in
      let acc = Array.make width zero in
      for i = 0 to width - 1 do
        let pp =
          Array.init (width - i) (fun j -> B.gate b Circuit.And [ aa.(j); ba.(i) ])
        in
        if i = 0 then Array.blit pp 0 acc 0 width
        else begin
          let high = Array.to_list (Array.sub acc i (width - i)) in
          let sums = ripple_truncated b high (Array.to_list pp) zero in
          List.iteri (fun k s -> acc.(i + k) <- s) sums
        end
      done;
      Array.to_list acc
    | Op.Div ->
      let aa = Array.of_list a in
      let divisor = bb @ [ zero ] in
      let rem = ref (List.init (width + 1) (fun _ -> zero)) in
      let quotient = Array.make width zero in
      for i = width - 1 downto 0 do
        let shifted = aa.(i) :: Bistpath_util.Listx.take width !rem in
        let trial, borrow = sub_nets b shifted divisor in
        quotient.(i) <- B.gate b Circuit.Not [ borrow ];
        rem := List.map2 (fun t s -> mux2 b borrow t s) trial shifted
      done;
      Array.to_list quotient
  in
  let results = List.map result_of kinds in
  let gated =
    List.map2
      (fun sel bits -> List.map (fun bit -> B.gate b Circuit.And [ sel; bit ]) bits)
      selects results
  in
  let combined =
    match gated with
    | [] -> assert false
    | [ only ] -> only
    | first :: rest ->
      List.fold_left (fun acc bits -> List.map2 (fun x y -> B.gate b Circuit.Or [ x; y ]) acc bits) first rest
  in
  List.iter (B.output b) combined;
  B.finish b
