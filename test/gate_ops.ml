(* Gate-level conveniences only the tests use: outputs-only and
   single-pattern simulation, fault injection over whole nets, and the
   check that a PODEM vector detects its fault. [Sim] includes the library module it extends, so a
   test aliases [Gate_ops.Sim] where it used [Bistpath_gatelevel.Sim]. *)

module Circuit = Bistpath_gatelevel.Circuit
module Fault = Bistpath_gatelevel.Fault

module Sim = struct
  include Bistpath_gatelevel.Sim

  (* One word per primary input (in port order) in, one word per primary
     output out. *)
  let eval c input_words =
    let nets = eval_nets c input_words in
    Array.of_list (List.map (fun n -> nets.(n)) c.Circuit.outputs)

  (* Single pattern: one 0/1 int per primary input net, in port order;
     returns one 0/1 int per primary output. *)
  let eval_ints c bits =
    let words = Array.of_list (List.map (fun bit -> if bit <> 0 then -1L else 0L) bits) in
    Array.to_list (Array.map (fun w -> if Int64.logand w 1L = 1L then 1 else 0) (eval c words))

  (* Evaluates a circuit whose inputs form consecutive [width]-bit
     operands (LSB first): [eval_words c ~width [a; b]] drives operand
     values and decodes outputs as width-bit little-endian integers; a
     trailing group shorter than [width] (e.g. a carry-out) is decoded
     from the remaining bits. *)
  let eval_words c ~width operands =
    let bits_of v = List.init width (fun i -> (v lsr i) land 1) in
    let in_bits = List.concat_map bits_of operands in
    if List.length in_bits <> List.length c.Circuit.inputs then
      invalid_arg "Sim.eval_words: operand count does not match circuit inputs";
    let rec group = function
      | [] -> []
      | bits ->
        let chunk = Bistpath_util.Listx.take width bits in
        let value =
          snd (List.fold_left (fun (i, acc) b -> (i + 1, acc lor (b lsl i))) (0, 0) chunk)
        in
        value :: group (List.filteri (fun i _ -> i >= List.length chunk) bits)
    in
    group (eval_ints c in_bits)
end

(* Fault-weighted mean coverage across a BIST report's units. *)
let overall_coverage (r : Bistpath_gatelevel.Bist_sim.report) =
  let sum f = List.fold_left (fun acc u -> acc + f u) 0 r.units in
  let total = sum (fun u -> u.Bistpath_gatelevel.Bist_sim.faults_total) in
  if total = 0 then 1.0 else float_of_int (sum (fun u -> u.faults_detected)) /. float_of_int total

(* Both polarities on every net. *)
let all_faults c =
  List.concat_map
    (fun net -> [ { Fault.net; polarity = Stuck_at_0 }; { net; polarity = Stuck_at_1 } ])
    (List.init c.Circuit.num_nets Fun.id)

(* [count] uniform operand pairs of [width] bits. *)
let random_operand_patterns rng ~width ~count =
  let bound = 1 lsl width in
  List.init count (fun _ -> (Bistpath_util.Prng.int rng bound, Bistpath_util.Prng.int rng bound))

(* Net values under the fault, given fault-free input words. *)
let inject c f input_words = Sim.eval_nets ~stuck:(Fault.stuck f) c input_words

(* Does the vector (one 0/1 int per primary input) detect the fault,
   i.e. make some primary output differ? *)
let detects c fault vector =
  if List.length vector <> List.length c.Circuit.inputs then
    invalid_arg "Gate_ops.detects: vector arity mismatch";
  let words = Array.of_list (List.map (fun b -> if b <> 0 then -1L else 0L) vector) in
  let good = Sim.eval c words in
  let faulty = inject c fault words in
  List.exists2
    (fun o g -> not (Int64.equal faulty.(o) g))
    c.Circuit.outputs (Array.to_list good)
