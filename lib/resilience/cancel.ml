type reason =
  | Deadline of float
  | Leaf_budget of int
  | Cancelled of string

type t = { cell : reason option Atomic.t; never : bool }

let create () = { cell = Atomic.make None; never = false }
let never = { cell = Atomic.make None; never = true }

let cancel t r =
  if t.never then invalid_arg "Cancel.cancel: the never token cannot be cancelled";
  Atomic.compare_and_set t.cell None (Some r)

let cancelled t = Atomic.get t.cell <> None
let reason t = Atomic.get t.cell

let describe = function
  | Deadline s -> Printf.sprintf "deadline of %.2fs exceeded" s
  | Leaf_budget n -> Printf.sprintf "leaf budget of %d exhausted" n
  | Cancelled why -> Printf.sprintf "cancelled: %s" why
