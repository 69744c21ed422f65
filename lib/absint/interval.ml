module Op = Bistpath_dfg.Op

type t = { lo : int; hi : int; zeros : int; ones : int }

type tri = No | May | Must

type transfer = { value : t; overflow : tri; div_by_zero : tri }

let mask ~width = (1 lsl width) - 1

(* Bits needed to represent [n] (n >= 0); 0 still occupies one bit. *)
let rec bits_of n = if n <= 1 then 1 else 1 + bits_of (n lsr 1)

(* Mutual reduction of the two halves. One round each way reaches the
   fixed point for the facts our transfers produce: the interval can
   only tighten from [zeros]/[ones], and the known bits can only gain
   the leading bits the tightened interval fixes. *)
let norm ~width lo hi zeros ones =
  let m = mask ~width in
  let lo = max 0 (min lo m) and hi = max 0 (min hi m) in
  let zeros = zeros land m and ones = ones land m in
  let lo = max lo ones in
  let hi = min hi (m land lnot zeros) in
  if lo > hi || zeros land ones <> 0 then
    (* Contradictory halves never arise from sound inputs; degrade to
       top rather than export a bottom value the rules would misread
       as "no concrete value reaches this net". *)
    { lo = 0; hi = m; zeros = 0; ones = 0 }
  else
    (* Every value in [lo, hi] agrees with [lo] on all bits above the
       highest bit where [lo] and [hi] differ. *)
    let diff = lo lxor hi in
    let fixed = if diff = 0 then m else m land lnot ((1 lsl bits_of diff) - 1) in
    { lo;
      hi;
      zeros = zeros lor (fixed land lnot lo land m);
      ones = ones lor (fixed land lo);
    }

let make ~width lo hi = norm ~width lo hi 0 0
let full ~width = make ~width 0 (mask ~width)
let const ~width n = make ~width n n

let join ~width a b =
  norm ~width (min a.lo b.lo) (max a.hi b.hi) (a.zeros land b.zeros)
    (a.ones land b.ones)

let widen ~width ~old next =
  let m = mask ~width in
  norm ~width
    (if next.lo < old.lo then 0 else old.lo)
    (if next.hi > old.hi then m else old.hi)
    (old.zeros land next.zeros) (old.ones land next.ones)

let equal a b = a.lo = b.lo && a.hi = b.hi && a.zeros = b.zeros && a.ones = b.ones
let is_const t = if t.lo = t.hi then Some t.lo else None
let bits t = bits_of t.hi

let to_string t =
  if t.lo = t.hi then Printf.sprintf "{%d}" t.lo
  else Printf.sprintf "[%d,%d]" t.lo t.hi

let pure value = { value; overflow = No; div_by_zero = No }

let add ~width a b =
  let m = mask ~width in
  let sl = a.lo + b.lo and sh = a.hi + b.hi in
  if sh <= m then { (pure (make ~width sl sh)) with overflow = No }
  else if sl > m then
    (* every concrete sum wraps exactly once, and sums over a box of
       intervals form a contiguous range *)
    { (pure (make ~width (sl - m - 1) (sh - m - 1))) with overflow = Must }
  else { (pure (full ~width)) with overflow = May }

let sub ~width a b =
  let m = mask ~width in
  if a.lo >= b.hi then pure (make ~width (a.lo - b.hi) (a.hi - b.lo))
  else if a.hi < b.lo then
    { (pure (make ~width (a.lo - b.hi + m + 1) (a.hi - b.lo + m + 1))) with
      overflow = Must
    }
  else { (pure (full ~width)) with overflow = May }

let mul ~width a b =
  let m = mask ~width in
  (* overflow-safe product bound checks: x * y <= m iff y = 0 or
     x <= m / y (integer division), which never leaves the int range *)
  let fits x y = y = 0 || x <= m / y in
  if fits a.hi b.hi then pure (make ~width (a.lo * b.lo) (a.hi * b.hi))
  else if a.lo > 0 && b.lo > 0 && not (fits a.lo b.lo) then
    (* wrapped products are not contiguous: top is the sound result *)
    { (pure (full ~width)) with overflow = Must }
  else { (pure (full ~width)) with overflow = May }

let div ~width a b =
  let m = mask ~width in
  if b.hi = 0 then { value = const ~width m; overflow = No; div_by_zero = Must }
  else
    let qlo = a.lo / b.hi and qhi = a.hi / max 1 b.lo in
    if b.lo = 0 then
      (* a zero divisor forces the all-ones word, so the result joins
         the quotient range with [m] *)
      { value = make ~width qlo m; overflow = No; div_by_zero = May }
    else { value = make ~width qlo qhi; overflow = No; div_by_zero = No }

let and_ ~width a b =
  pure
    (norm ~width 0 (min a.hi b.hi) (a.zeros lor b.zeros) (a.ones land b.ones))

let or_ ~width a b =
  pure
    (norm ~width (max a.lo b.lo) (mask ~width) (a.zeros land b.zeros)
       (a.ones lor b.ones))

let xor ~width a b =
  pure
    (norm ~width 0 (mask ~width)
       ((a.zeros land b.zeros) lor (a.ones land b.ones))
       ((a.ones land b.zeros) lor (a.zeros land b.ones)))

let less ~width a b =
  if a.hi < b.lo then pure (const ~width 1)
  else if a.lo >= b.hi then pure (const ~width 0)
  else pure (make ~width 0 1)

let transfer kind ~width a b =
  match (kind : Op.kind) with
  | Op.Add -> add ~width a b
  | Op.Sub -> sub ~width a b
  | Op.Mul -> mul ~width a b
  | Op.Div -> div ~width a b
  | Op.And -> and_ ~width a b
  | Op.Or -> or_ ~width a b
  | Op.Xor -> xor ~width a b
  | Op.Less -> less ~width a b

let transfer_same kind ~width a =
  match (kind : Op.kind) with
  | Op.Sub | Op.Xor | Op.Less -> pure (const ~width 0)
  | Op.And | Op.Or -> pure a
  | Op.Div ->
      let m = mask ~width in
      if a.hi = 0 then { value = const ~width m; overflow = No; div_by_zero = Must }
      else if a.lo >= 1 then pure (const ~width 1)
      else { value = make ~width 1 m; overflow = No; div_by_zero = May }
  | Op.Add | Op.Mul -> transfer kind ~width a a
