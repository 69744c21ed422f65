module Budget = Bistpath_resilience.Budget

type result = {
  total : int;
  detected : int;
  undetected : Fault.t list;
  skipped : Fault.t list;
}

let coverage r = if r.total = 0 then 1.0 else float_of_int r.detected /. float_of_int r.total

(* Pack up to 64 patterns (bit lists, one bit per input) into one word
   per input: pattern [lo + j] occupies bit lane j. *)
let pack num_inputs patterns lo hi =
  let words = Array.make num_inputs 0L in
  for lane = 0 to hi - lo - 1 do
    List.iteri
      (fun i bit ->
        if bit <> 0 then words.(i) <- Int64.logor words.(i) (Int64.shift_left 1L lane))
      patterns.(lo + lane)
  done;
  words

let run ?(budget = Budget.unlimited) c ~faults ~patterns =
  let num_inputs = List.length c.Circuit.inputs in
  List.iter
    (fun p ->
      if List.length p <> num_inputs then
        invalid_arg "Fault_sim.run: pattern arity mismatch")
    patterns;
  Bistpath_telemetry.Telemetry.incr "fault_sim.faults" ~by:(List.length faults);
  Bistpath_telemetry.Telemetry.incr "fault_sim.events"
    ~by:(List.length faults * List.length patterns);
  let k = Sim.compile c in
  let nets = Sim.nets k in
  let outputs = Array.of_list c.Circuit.outputs in
  let patterns = Array.of_list patterns in
  let n = Array.length patterns in
  (* Each chunk's input words with its fault-free output words. *)
  let chunks =
    Array.init ((n + 63) / 64) (fun i ->
        let words = pack num_inputs patterns (64 * i) (min n (64 * (i + 1))) in
        Sim.eval_chunk k nets words;
        (words, Array.map (Bigarray.Array1.get nets) outputs))
  in
  (* Whole words are compared, so the unused lanes of a partial last
     chunk (all inputs 0) are graded too. *)
  let detected f =
    let stuck = Fault.stuck f in
    Array.exists
      (fun (words, good) ->
        Sim.eval_chunk k nets ~stuck words;
        Array.exists2 (fun o g -> not (Int64.equal (Bigarray.Array1.get nets o) g)) outputs good)
      chunks
  in
  (* Faults not graded before the budget's token tripped come back
     [None] and are reported as [skipped], never silently counted as
     undetected. *)
  let flags = Budget.map budget detected faults in
  let undetected, skipped =
    List.fold_left2
      (fun (und, sk) f hit ->
        match hit with
        | Some true -> (und, sk)
        | Some false -> (f :: und, sk)
        | None -> (und, f :: sk))
      ([], []) faults flags
  in
  let undetected = List.rev undetected and skipped = List.rev skipped in
  {
    total = List.length faults;
    detected = List.length faults - List.length undetected - List.length skipped;
    undetected;
    skipped;
  }

let run_operand_patterns ?budget c ~width ~faults ~patterns =
  if List.length c.Circuit.inputs <> 2 * width then
    invalid_arg "Fault_sim.run_operand_patterns: circuit is not a two-operand module";
  let bits_of v = List.init width (fun i -> (v lsr i) land 1) in
  let vectors = List.map (fun (a, b) -> bits_of a @ bits_of b) patterns in
  run ?budget c ~faults ~patterns:vectors

let random_operand_patterns rng ~width ~count =
  let bound = 1 lsl width in
  List.init count (fun _ ->
      (Bistpath_util.Prng.int rng bound, Bistpath_util.Prng.int rng bound))
