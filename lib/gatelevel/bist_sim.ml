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

(* Deterministic LFSR seed from a register name, non-zero in the low
   [width] bits that [Lfsr.create] keeps. *)
let seed_of_register ~width ~salt ~seed rid =
  let s = Hashtbl.hash (rid, salt, seed) land 0xFFFF in
  if s land ((1 lsl width) - 1) = 0 then 1 else s

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

(* The MISR as lane masks. From the zero state, the signature of N
   response words is the XOR over vectors v and set bits j of word v of
   A^(N-1-v) e_j, where A is one clock with a zero word ({!Misr}'s
   linearity). Mask ((c * width + j) * width + b) has lane l set when
   bit b of A^(N-1-v) e_j is, for vector v = 64c + l; lanes past the
   last vector stay clear. *)
let misr_masks ~width ~vectors =
  let chunks = (vectors + 63) / 64 in
  let masks = A1.create Bigarray.int64 Bigarray.c_layout (max 1 (chunks * width * width)) in
  A1.fill masks 0L;
  for j = 0 to width - 1 do
    let column = ref (1 lsl j) in
    for v = vectors - 1 downto 0 do
      for b = 0 to width - 1 do
        if (!column lsr b) land 1 = 1 then begin
          let i = ((((v / 64) * width) + j) * width) + b in
          A1.set masks i (Int64.logor (A1.get masks i) (Int64.shift_left 1L (v mod 64)))
        end
      done;
      column := Misr.clock ~width !column 0
    done
  done;
  masks

(* XOR chunk [c]'s responses into the per-bit accumulators: [words.{o}]
   is output port o's word. The response of a vector is the outputs as
   a little-endian number with its high [width] bits XOR-folded onto
   the low ones, so output o lands on bit (o mod width) and outputs
   past 2 * width fall outside the register's mask. *)
let absorb ~width ~folded masks (acc : Sim.nets) c (words : Sim.nets) =
  for o = 0 to folded - 1 do
    if not (Int64.equal (A1.unsafe_get words o) 0L) then begin
      let base = ((c * width) + (o mod width)) * width in
      for b = 0 to width - 1 do
        A1.unsafe_set acc b
          (Int64.logxor (A1.unsafe_get acc b)
             (Int64.logand (A1.unsafe_get words o) (A1.unsafe_get masks (base + b))))
      done
    end
  done

(* Signature bit b is the parity of accumulator b. *)
let signature_of ~width (acc : Sim.nets) =
  let s = ref 0 in
  for b = 0 to width - 1 do
    let x = A1.get acc b in
    let x = Int64.logxor x (Int64.shift_right_logical x 32) in
    let x = Int64.logxor x (Int64.shift_right_logical x 16) in
    let x = Int64.logxor x (Int64.shift_right_logical x 8) in
    let x = Int64.logxor x (Int64.shift_right_logical x 4) in
    let x = Int64.logxor x (Int64.shift_right_logical x 2) in
    let x = Int64.logxor x (Int64.shift_right_logical x 1) in
    s := !s lor (Int64.to_int (Int64.logand x 1L) lsl b)
  done;
  !s

let grade ?(budget = Budget.unlimited) ~width c ~operands faults =
  let num_inputs = List.length c.Circuit.inputs in
  let kinds = max 1 (num_inputs - (2 * width)) in
  let vectors = Array.length operands * kinds in
  let size i = min 64 (vectors - (64 * i)) in
  let chunks = (vectors + 63) / 64 in
  let r =
    Sim.reference (Sim.compile c)
      (Array.init chunks (fun i -> pack ~width ~num_inputs operands (64 * i) (size i)))
  in
  let outputs = Array.of_list c.Circuit.outputs in
  let folded = min (Array.length outputs) (2 * width) in
  let masks = misr_masks ~width ~vectors in
  let acc = A1.create Bigarray.int64 Bigarray.c_layout width in
  let absorb = absorb ~width ~folded masks acc in
  A1.fill acc 0L;
  let good = A1.create Bigarray.int64 Bigarray.c_layout (max 1 (Array.length outputs)) in
  for i = 0 to chunks - 1 do
    Array.iteri (fun o net -> A1.set good o (Sim.good_word r i net)) outputs;
    absorb i good
  done;
  let signature = signature_of ~width acc in
  (* A fault is seen once any output differs from the fault-free run in
     a live lane. It aliased if its MISR still ends on the fault-free
     signature, that is, if its error words sign to 0. *)
  let grade_fault f =
    A1.fill acc 0L;
    let seen = ref false in
    ignore
      (Sim.faulty_chunks r (Fault.stuck f) (fun i diff ->
           if not !seen then seen := Sim.detects diff (Sim.live_lanes (size i));
           absorb i diff;
           false));
    (!seen, !seen && signature_of ~width acc = 0)
  in
  let graded = Budget.map budget grade_fault faults in
  Bistpath_telemetry.Telemetry.incr "bist_sim.gate_evals" ~by:(Sim.gate_evals r);
  (signature, graded)

let simulate_unit ~budget ~width ~pattern_count ~seed (e : Ipath.embedding)
    (u : Massign.hw) =
  let circuit =
    match u.kinds with
    | [ k ] -> Library.of_kind k ~width
    | kinds -> Library.alu kinds ~width
  in
  let gen_l = Lfsr.create ~width ~seed:(seed_of_register ~width ~salt:0 ~seed e.l_tpg) in
  let gen_r = Lfsr.create ~width ~seed:(seed_of_register ~width ~salt:1 ~seed e.r_tpg) in
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
  Bistpath_telemetry.Telemetry.with_span "gatelevel.coverage" @@ fun () ->
  let unit_by_id mid =
    List.find
      (fun (u : Massign.hw) -> String.equal u.mid mid)
      dp.Datapath.massign.Massign.units
  in
  (* A unit's grade depends only on its kinds (the circuit) and its two
     TPG registers (the operand streams), so units that agree on those
     get the same report: each distinct one is graded once. *)
  let graded = Hashtbl.create 8 in
  let units =
    List.map
      (fun (e : Ipath.embedding) ->
        Bistpath_telemetry.Telemetry.with_span "bist_sim" ~attrs:[ ("unit", e.mid) ]
          (fun () ->
            let u = unit_by_id e.mid in
            let key = (u.kinds, e.l_tpg, e.r_tpg) in
            match Hashtbl.find_opt graded key with
            | Some (report : unit_report) ->
              Bistpath_telemetry.Telemetry.incr "bist_sim.units_shared";
              { report with mid = e.mid }
            | None ->
              let report = simulate_unit ~budget ~width ~pattern_count ~seed e u in
              Hashtbl.add graded key report;
              report))
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
