module Telemetry = Bistpath_telemetry.Telemetry

type t = {
  limited : bool;
  deadline_ns : int64;  (* absolute monotonic deadline; max_int64 = none *)
  deadline_s : float;  (* as configured, for the reason *)
  leaf_budget : int;  (* max_int = none *)
  token : Cancel.t;
  mutable nodes : int;
  mutable leaves : int;
}

let no_deadline = Int64.max_int

let unlimited =
  {
    limited = false;
    deadline_ns = no_deadline;
    deadline_s = 0.0;
    leaf_budget = max_int;
    token = Cancel.never;
    nodes = 0;
    leaves = 0;
  }

let create ?deadline_s ?leaf_budget ?cancel () =
  (match deadline_s with
  | Some s when s <= 0.0 -> invalid_arg "Budget.create: deadline_s must be > 0"
  | _ -> ());
  (match leaf_budget with
  | Some n when n < 1 -> invalid_arg "Budget.create: leaf_budget must be >= 1"
  | _ -> ());
  {
    limited = true;
    deadline_ns =
      (match deadline_s with
      | None -> no_deadline
      | Some s -> Int64.add (Monotonic_clock.now ()) (Int64.of_float (s *. 1e9)));
    deadline_s = (match deadline_s with None -> 0.0 | Some s -> s);
    leaf_budget = (match leaf_budget with None -> max_int | Some n -> n);
    token = (match cancel with None -> Cancel.create () | Some c -> c);
    nodes = 0;
    leaves = 0;
  }

let nodes t = t.nodes
let leaves t = t.leaves

let trip t reason =
  if Cancel.cancel t.token reason then begin
    Telemetry.instant "budget.trip" ~attrs:[ ("reason", Cancel.describe reason) ];
    match reason with
    | Cancel.Deadline _ -> Telemetry.incr "resilience.deadline_hits"
    | _ -> ()
  end

let check_deadline t =
  if t.deadline_ns <> no_deadline && Monotonic_clock.now () >= t.deadline_ns then
    trip t (Cancel.Deadline t.deadline_s)

(* The deadline clock is read every [deadline_stride] nodes: branch-and-
   bound nodes cost well under a microsecond, so polling each one would
   be dominated by clock_gettime. *)
let deadline_stride = 64

let node t =
  if t.limited then begin
    t.nodes <- t.nodes + 1;
    if t.nodes mod deadline_stride = 0 then check_deadline t
  end

let leaf t =
  if t.limited then begin
    t.leaves <- t.leaves + 1;
    if t.leaves >= t.leaf_budget then trip t (Cancel.Leaf_budget t.leaf_budget);
    check_deadline t
  end

let should_stop t =
  t.limited
  && (Cancel.cancelled t.token
     ||
     (check_deadline t;
      Cancel.cancelled t.token))

let map t f xs = List.map (fun x -> if should_stop t then None else Some (f x)) xs

let stop_reason t = if t.limited then Cancel.reason t.token else None
