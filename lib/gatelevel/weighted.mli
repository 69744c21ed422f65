(** Weighted-random test patterns.

    Uniform pseudo-random patterns struggle with faults that need many
    specific input values at once (the comparator's equality chain, the
    divider's deep borrow logic). The classical remedy keeps the LFSR
    but biases each input bit; here the weights are extracted from the
    PODEM deterministic test set — the fraction of ones each input takes
    across the vectors that provably detect every testable fault. *)

val input_weights : Circuit.t -> float array
(** One weight in [0,1] per primary input (probability of driving 1),
    from the PODEM test set; inputs the test set never constrains get
    0.5. *)

val patterns :
  Bistpath_util.Prng.t -> weights:float array -> count:int -> int list list
(** Bernoulli-sampled bit vectors, one bit per input. *)

type comparison = {
  testable : int;  (** faults PODEM can test at all *)
  uniform_detected : int;
  weighted_detected : int;
}

val compare_coverage : Circuit.t -> count:int -> comparison
(** Detected counts for [count] uniform vs [count] weighted patterns
    over the collapsed fault list, against the PODEM-testable total.
    Both pattern sets are drawn from seed 1. *)
