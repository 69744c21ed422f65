module Prng = Bistpath_util.Prng

let input_weights c =
  let cls = Podem.classify_all c in
  let n = List.length c.Circuit.inputs in
  let ones = Array.make n 0 in
  let total = List.length cls.Podem.tested in
  List.iter
    (fun (_, vector) ->
      List.iteri (fun i b -> if b <> 0 then ones.(i) <- ones.(i) + 1) vector)
    cls.Podem.tested;
  Array.init n (fun i ->
      if total = 0 then 0.5 else float_of_int ones.(i) /. float_of_int total)

let patterns rng ~weights ~count =
  List.init count (fun _ ->
      Array.to_list (Array.map (fun w -> if Prng.float rng 1.0 < w then 1 else 0) weights))

type comparison = {
  testable : int;
  uniform_detected : int;
  weighted_detected : int;
}

let compare_coverage c ~count =
  let faults = Fault.collapsed c in
  let cls = Podem.classify_all c in
  let testable = List.length cls.Podem.tested in
  let n = List.length c.Circuit.inputs in
  let uniform_rng = Prng.create 1 in
  let uniform =
    patterns uniform_rng ~weights:(Array.make n 0.5) ~count
  in
  let weighted_rng = Prng.create 1 in
  let weighted = patterns weighted_rng ~weights:(input_weights c) ~count in
  let detected ps = (Fault_sim.run c ~faults ~patterns:ps).Fault_sim.detected in
  {
    testable;
    uniform_detected = detected uniform;
    weighted_detected = detected weighted;
  }
