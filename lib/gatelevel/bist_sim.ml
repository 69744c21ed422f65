module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign
module Ipath = Bistpath_ipath.Ipath
module Allocator = Bistpath_bist.Allocator
module Listx = Bistpath_util.Listx
module Budget = Bistpath_resilience.Budget
module A1 = Bigarray.Array1

type unit_report = {
  mid : string;
  patterns : int;
  faults_total : int;
  faults_detected : int;
  coverage : float;
  signature : int;
  aliased : int;
  skipped : int;
}

type report = {
  width : int;
  pattern_count : int;
  units : unit_report list;
}

(* Deterministic non-zero LFSR seed from a register name. *)
let seed_of_register ~salt ~seed rid =
  let h = Hashtbl.hash (rid, salt, seed) in
  match h land 0xFFFF with 0 -> 1 | s -> s

(* Input words of vectors [lo, lo + size). Vector v applies operand
   pair p = v mod n; an ALU runs every kind in turn, with one-hot select
   k = v / n on the inputs after the two operands. *)
let pack ~width ~num_inputs operands lo size =
  let n = Array.length operands in
  let words = Array.make num_inputs 0L in
  for lane = 0 to size - 1 do
    let v = lo + lane in
    let a, b = operands.(v mod n) and k = v / n in
    for i = 0 to num_inputs - 1 do
      let bit =
        if i < width then (a lsr i) land 1
        else if i < 2 * width then (b lsr (i - width)) land 1
        else if i - (2 * width) = k then 1
        else 0
      in
      if bit = 1 then words.(i) <- Int64.logor words.(i) (Int64.shift_left 1L lane)
    done
  done;
  words

(* Clock each live lane's response into the MISR. The response is the
   outputs as a little-endian number with its high [width] bits
   XOR-folded onto the low ones: output i lands on bit (i mod width),
   and outputs past 2 * width fall outside the register's mask. *)
let absorb_lanes misr ~width (nets : Sim.nets) outputs size =
  let n = min (Array.length outputs) (2 * width) in
  for lane = 0 to size - 1 do
    let word = ref 0 in
    for i = 0 to n - 1 do
      let bit =
        Int64.to_int (Int64.shift_right_logical (A1.get nets outputs.(i)) lane) land 1
      in
      word := !word lxor (bit lsl (i mod width))
    done;
    Misr.absorb misr !word
  done

let grade ?(budget = Budget.unlimited) ~width c ~operands faults =
  let num_inputs = List.length c.Circuit.inputs in
  let kinds = max 1 (num_inputs - (2 * width)) in
  let vectors = Array.length operands * kinds in
  let k = Sim.compile c in
  let nets = Sim.nets k in
  let outputs = Array.of_list c.Circuit.outputs in
  (* Each chunk's input words, live lanes and fault-free output words;
     [Array.init] runs in order, so the fault-free MISR absorbs the
     vectors in sequence. *)
  let golden_misr = Misr.create ~width in
  let chunks =
    Array.init ((vectors + 63) / 64) (fun i ->
        let size = min 64 (vectors - (64 * i)) in
        let words = pack ~width ~num_inputs operands (64 * i) size in
        Sim.eval_chunk k nets words;
        absorb_lanes golden_misr ~width nets outputs size;
        (words, size, Array.map (A1.get nets) outputs))
  in
  let signature = Misr.signature golden_misr in
  (* A fault is seen once any output differs from the fault-free run in
     a live lane; it aliased if its own MISR still ends on the fault-free
     signature. *)
  let grade_fault f =
    let stuck = Fault.stuck f in
    let misr = Misr.create ~width in
    let seen = ref false in
    Array.iter
      (fun (words, size, good) ->
        Sim.eval_chunk k nets ~stuck words;
        if not !seen then begin
          let diff = ref 0L in
          for o = 0 to Array.length outputs - 1 do
            diff := Int64.logor !diff (Int64.logxor (A1.get nets outputs.(o)) good.(o))
          done;
          let live = if size = 64 then -1L else Int64.pred (Int64.shift_left 1L size) in
          seen := not (Int64.equal (Int64.logand !diff live) 0L)
        end;
        absorb_lanes misr ~width nets outputs size)
      chunks;
    (!seen, !seen && Misr.signature misr = signature)
  in
  (signature, Budget.map budget grade_fault faults)

let simulate_unit ~budget ~width ~pattern_count ~seed (e : Ipath.embedding)
    (u : Massign.hw) =
  let circuit =
    match u.kinds with
    | [ k ] -> Library.of_kind k ~width
    | kinds -> Library.alu kinds ~width
  in
  let gen_l = Lfsr.create ~width ~seed:(seed_of_register ~salt:0 ~seed e.l_tpg) in
  let gen_r = Lfsr.create ~width ~seed:(seed_of_register ~salt:1 ~seed e.r_tpg) in
  let operands = Array.init pattern_count (fun _ -> (Lfsr.step gen_l, Lfsr.step gen_r)) in
  let vectors = pattern_count * List.length u.kinds in
  Bistpath_telemetry.Telemetry.incr "bist_sim.patterns" ~by:vectors;
  let faults = Fault.collapsed circuit in
  Bistpath_telemetry.Telemetry.incr "bist_sim.faults" ~by:(List.length faults);
  let signature, graded = grade ~budget ~width circuit ~operands faults in
  let detected = ref 0 and aliased = ref 0 and skipped = ref 0 in
  List.iter
    (function
      | Some (hit, alias) ->
        if hit then begin
          incr detected;
          if alias then incr aliased
        end
      | None -> incr skipped)
    graded;
  {
    mid = e.mid;
    patterns = vectors;
    faults_total = List.length faults;
    faults_detected = !detected;
    coverage =
      (if faults = [] then 1.0
       else float_of_int !detected /. float_of_int (List.length faults));
    signature;
    aliased = !aliased;
    skipped = !skipped;
  }

let run ?(width = 8) ?(pattern_count = 255) ?(seed = 1) ?(budget = Budget.unlimited) dp
    (sol : Allocator.solution) =
  let unit_by_id mid =
    List.find
      (fun (u : Massign.hw) -> String.equal u.mid mid)
      dp.Datapath.massign.Massign.units
  in
  let units =
    List.map
      (fun (e : Ipath.embedding) ->
        Bistpath_telemetry.Telemetry.with_span "bist_sim" ~attrs:[ ("unit", e.mid) ]
          (fun () ->
            simulate_unit ~budget ~width ~pattern_count ~seed e (unit_by_id e.mid)))
      sol.Allocator.embeddings
  in
  { width; pattern_count; units }

let overall_coverage r =
  let total = Listx.sum_by (fun u -> u.faults_total) r.units in
  let detected = Listx.sum_by (fun u -> u.faults_detected) r.units in
  if total = 0 then 1.0 else float_of_int detected /. float_of_int total

let pp ppf r =
  Format.fprintf ppf "@[<v>BIST self-test simulation (width %d, %d patterns per session)@,"
    r.width r.pattern_count;
  List.iter
    (fun u ->
      Format.fprintf ppf
        "  %s: %d/%d stuck-at faults detected (%.1f%%), signature %0*X, %d aliased%s@,"
        u.mid u.faults_detected u.faults_total (100.0 *. u.coverage)
        ((r.width + 3) / 4) u.signature u.aliased
        (if u.skipped > 0 then Printf.sprintf ", %d skipped" u.skipped else ""))
    r.units;
  Format.fprintf ppf "  overall coverage: %.1f%%@]" (100.0 *. overall_coverage r)
