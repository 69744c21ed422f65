module Budget = Bistpath_resilience.Budget

type result =
  | Test of int list
  | Untestable
  | Aborted

type classification = {
  tested : (Fault.t * int list) list;
  untestable : Fault.t list;
  aborted : Fault.t list;
  skipped : Fault.t list;
}

(* Three-valued logic for the good and the faulty machine. *)
type tri = T0 | T1 | TX

let tri_not = function T0 -> T1 | T1 -> T0 | TX -> TX

let tri_and a b =
  match (a, b) with
  | T0, _ | _, T0 -> T0
  | T1, T1 -> T1
  | _ -> TX

let tri_or a b =
  match (a, b) with
  | T1, _ | _, T1 -> T1
  | T0, T0 -> T0
  | _ -> TX

let tri_xor a b =
  match (a, b) with
  | TX, _ | _, TX -> TX
  | x, y -> if x = y then T0 else T1

(* A gate's value over its input nets' values in [vals], folded in
   place: evaluating a gate allocates nothing. *)
let rec fold f (vals : tri array) acc = function
  | [] -> acc
  | i :: rest -> fold f vals (f acc vals.(i)) rest

let eval_tri kind ins vals =
  match ins with
  | [] -> TX
  | i :: rest -> (
    let v = vals.(i) in
    match kind with
    | Circuit.And -> fold tri_and vals v rest
    | Circuit.Nand -> tri_not (fold tri_and vals v rest)
    | Circuit.Or -> fold tri_or vals v rest
    | Circuit.Nor -> tri_not (fold tri_or vals v rest)
    | Circuit.Xor -> fold tri_xor vals v rest
    | Circuit.Xnor -> tri_not (fold tri_xor vals v rest)
    | Circuit.Not -> tri_not v
    | Circuit.Buf -> v)

(* Controlling value of a gate kind, if any, and output inversion. *)
let controlling = function
  | Circuit.And -> (Some T0, false)
  | Circuit.Nand -> (Some T0, true)
  | Circuit.Or -> (Some T1, false)
  | Circuit.Nor -> (Some T1, true)
  | Circuit.Not -> (None, true)
  | Circuit.Buf -> (None, false)
  | Circuit.Xor | Circuit.Xnor -> (None, false)

type state = {
  circuit : Circuit.t;
  fault : Fault.t;
  scoap : Scoap.t;
  pi_value : tri array;  (* assigned primary inputs; TX = unassigned *)
  good : tri array;
  faulty : tri array;
  driver : Circuit.gate option array;  (* net -> driving gate *)
  cone : bool array;  (* the fault's fan-out cone; elsewhere faulty = good *)
}

let stuck_tri (f : Fault.t) =
  match f.Fault.polarity with Fault.Stuck_at_0 -> T0 | Fault.Stuck_at_1 -> T1

(* Forward simulation of both machines from the current PI assignment. *)
let imply st =
  Array.fill st.good 0 (Array.length st.good) TX;
  Array.fill st.faulty 0 (Array.length st.faulty) TX;
  List.iter
    (fun i ->
      st.good.(i) <- st.pi_value.(i);
      st.faulty.(i) <- st.pi_value.(i))
    st.circuit.Circuit.inputs;
  if st.fault.Fault.net < Array.length st.faulty then
    if List.mem st.fault.Fault.net st.circuit.Circuit.inputs then
      st.faulty.(st.fault.Fault.net) <- stuck_tri st.fault;
  Array.iter
    (fun (g : Circuit.gate) ->
      let out = g.Circuit.output in
      st.good.(out) <- eval_tri g.Circuit.kind g.Circuit.inputs st.good;
      st.faulty.(out) <-
        (if out = st.fault.Fault.net then stuck_tri st.fault
         else if st.cone.(out) then eval_tri g.Circuit.kind g.Circuit.inputs st.faulty
         else st.good.(out)))
    st.circuit.Circuit.gates

let is_d st i =
  st.good.(i) <> TX && st.faulty.(i) <> TX && st.good.(i) <> st.faulty.(i)

let d_at_output st = List.exists (is_d st) st.circuit.Circuit.outputs

let excited st = is_d st st.fault.Fault.net

(* Excitation impossible: the good value at the fault site is already
   definite and equal to the stuck value. *)
let excitation_blocked st =
  let g = st.good.(st.fault.Fault.net) in
  g <> TX && g = stuck_tri st.fault

let rec any_d st = function [] -> false | i :: rest -> is_d st i || any_d st rest

(* The first D-frontier gate in topological order, the only one
   [objective] uses: an undecided output with a D or D-bar on an input
   (so a gate in the fault's cone). *)
let d_frontier st =
  let gates = st.circuit.Circuit.gates in
  let rec go k =
    if k = Array.length gates then None
    else
      let g = gates.(k) in
      if st.cone.(g.Circuit.output)
         && (st.good.(g.Circuit.output) = TX || st.faulty.(g.Circuit.output) = TX)
         && any_d st g.Circuit.inputs
      then Some g
      else go (k + 1)
  in
  go 0

(* Objective: excite the fault, then propagate through the D-frontier;
   [None] when neither is possible. *)
let objective st =
  if not (excited st) then
    let want = tri_not (stuck_tri st.fault) in
    if st.good.(st.fault.Fault.net) = TX then Some (st.fault.Fault.net, want) else None
  else
    match d_frontier st with
    | None -> None
    | Some g -> (
      let x_inputs =
        List.filter (fun i -> st.good.(i) = TX || st.faulty.(i) = TX) g.Circuit.inputs
      in
      match x_inputs with
      | [] -> None
      | i :: _ ->
        let v =
          match fst (controlling g.Circuit.kind) with
          | Some c -> tri_not c
          | None -> T1 (* XOR-family: any definite value advances *)
        in
        Some (i, v))

(* Backtrace an objective to an unassigned primary input. *)
let backtrace st (net, want) =
  let rec go net want fuel =
    if fuel = 0 then None
    else
      match st.driver.(net) with
      | None ->
        (* primary input *)
        if st.pi_value.(net) <> TX then None else Some (net, want)
      | Some (g : Circuit.gate) -> (
        let ctrl, inv = controlling g.Circuit.kind in
        let want' = if inv then tri_not want else want in
        let xs = List.filter (fun i -> st.good.(i) = TX) g.Circuit.inputs in
        match xs with
        | [] -> None
        | _ -> (
          match ctrl with
          | Some c when want' = c ->
            (* one controlling input suffices: take the easiest *)
            let cost i = if c = T0 then Scoap.cc0 st.scoap i else Scoap.cc1 st.scoap i in
            let best =
              List.fold_left (fun a i -> if cost i < cost a then i else a) (List.hd xs)
                (List.tl xs)
            in
            go best c (fuel - 1)
          | Some c ->
            (* all inputs must be non-controlling: pick the hardest *)
            let nc = tri_not c in
            let cost i = if nc = T0 then Scoap.cc0 st.scoap i else Scoap.cc1 st.scoap i in
            let best =
              List.fold_left (fun a i -> if cost i > cost a then i else a) (List.hd xs)
                (List.tl xs)
            in
            go best nc (fuel - 1)
          | None -> go (List.hd xs) want' (fuel - 1)))
  in
  go net want (Array.length st.good + 1)

(* SCOAP and the driver table depend only on the circuit: build them
   once and hand each fault a fresh search state over them, with the
   fault's fan-out cone — the only nets where the faulty machine can
   differ from the good one. *)
let prepare (c : Circuit.t) =
  let scoap = Scoap.analyze c in
  let driver = Array.make c.Circuit.num_nets None in
  Array.iter (fun (g : Circuit.gate) -> driver.(g.Circuit.output) <- Some g) c.Circuit.gates;
  fun (fault : Fault.t) ->
    let cone = Array.make c.Circuit.num_nets false in
    if fault.Fault.net < c.Circuit.num_nets then cone.(fault.Fault.net) <- true;
    Array.iter
      (fun (g : Circuit.gate) ->
        if List.exists (fun i -> cone.(i)) g.Circuit.inputs then cone.(g.Circuit.output) <- true)
      c.Circuit.gates;
    {
      circuit = c;
      fault;
      scoap;
      pi_value = Array.make c.Circuit.num_nets TX;
      good = Array.make c.Circuit.num_nets TX;
      faulty = Array.make c.Circuit.num_nets TX;
      driver;
      cone;
    }

let search ~max_backtracks ~budget st =
  let c = st.circuit in
  let backtracks = ref 0 in
  (* decision stack: (pi, first value, flipped?) *)
  let stack = ref [] in
  let success () =
    Some
      (List.map (fun i -> if st.pi_value.(i) = T1 then 1 else 0) c.Circuit.inputs)
  in
  let rec search () =
    imply st;
    if d_at_output st then success ()
    else if excitation_blocked st then backtrack ()
    else
      (* an excited fault with an empty D-frontier has no objective *)
      match objective st with
      | None -> backtrack ()
      | Some obj -> (
        match backtrace st obj with
        | None -> backtrack ()
        | Some (pi, v) ->
          st.pi_value.(pi) <- v;
          stack := (pi, v, false) :: !stack;
          search ())
  and backtrack () =
    incr backtracks;
    Bistpath_telemetry.Telemetry.incr "podem.backtracks";
    Budget.node budget;
    (* A tripped budget aborts exactly like the backtrack quota: the
       fault is reported [Aborted], never misclassified as untestable. *)
    if !backtracks > max_backtracks || Budget.should_stop budget then raise Exit
    else
      match !stack with
      | [] -> None
      | (pi, v, flipped) :: rest ->
        if flipped then begin
          st.pi_value.(pi) <- TX;
          stack := rest;
          backtrack ()
        end
        else begin
          let v' = tri_not v in
          st.pi_value.(pi) <- v';
          stack := (pi, v', true) :: rest;
          search ()
        end
  in
  match search () with
  | Some vector ->
    Bistpath_telemetry.Telemetry.incr "podem.tests";
    Test vector
  | None ->
    Bistpath_telemetry.Telemetry.incr "podem.untestable";
    Untestable
  | exception Exit ->
    Bistpath_telemetry.Telemetry.incr "podem.aborts";
    Aborted

let generate ?(max_backtracks = 10_000) ?(budget = Budget.unlimited) c fault =
  search ~max_backtracks ~budget (prepare c fault)

let verify c fault vector =
  if List.length vector <> List.length c.Circuit.inputs then
    invalid_arg "Podem.verify: vector arity mismatch";
  let words = Array.of_list (List.map (fun b -> if b <> 0 then -1L else 0L) vector) in
  let good = Sim.eval c words in
  let faulty = Fault.inject c fault words in
  List.exists2
    (fun o g -> not (Int64.equal faulty.(o) g))
    c.Circuit.outputs (Array.to_list good)

let classify_all ?(max_backtracks = 10_000) ?(budget = Budget.unlimited) c =
  let state = prepare c in
  let faults = Fault.collapsed c in
  let outcomes = Budget.map budget (fun f -> search ~max_backtracks ~budget (state f)) faults in
  List.fold_left2
    (fun acc f outcome ->
      match outcome with
      | Some (Test v) -> { acc with tested = (f, v) :: acc.tested }
      | Some Untestable -> { acc with untestable = f :: acc.untestable }
      | Some Aborted -> { acc with aborted = f :: acc.aborted }
      | None -> { acc with skipped = f :: acc.skipped })
    { tested = []; untestable = []; aborted = []; skipped = [] }
    faults outcomes
