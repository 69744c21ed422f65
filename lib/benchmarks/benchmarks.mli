(** The paper's benchmark instances plus larger extension benchmarks.

    Each [instance] bundles a scheduled DFG, a fixed module assignment
    (Table I column "Module Assignment"), and the input-allocation policy
    (see DESIGN.md §3 for why Paulin differs). The paper benchmarks are
    reconstructions from the published descriptions; [ex1] additionally
    reproduces the paper's walkthrough exactly (minimum of 3 registers,
    108 distinct 3-register assignments, the final testable allocation
    ({c,f,a},{d,g,b,h},{e})). *)

type instance = {
  tag : string;  (** Table I row label, e.g. "ex1", "Tseng1" *)
  dfg : Bistpath_dfg.Dfg.t;
  massign : Bistpath_dfg.Massign.t;
  policy : Bistpath_dfg.Policy.t;
}

val ex1 : unit -> instance
(** Fig. 2 of the paper: 2 additions on M1, 2 multiplications on M2. *)

val tseng1 : unit -> instance
(** Tseng benchmark, single-function units: 2+, 1*, 1-, 1&, 1|, 1/. *)

val tseng2 : unit -> instance
(** Same DFG, multifunction assignment: 1+ and 3 ALUs. *)

val paulin : unit -> instance
(** Differential-equation solver (Paulin & Knight), 1+, 2*, 1-. A loop
    body: x1/y1/u1 write back into the dedicated registers of x/y/u
    (carried policy), parameters dx/a/3 stay in dedicated read-only
    registers; 4 allocated registers minimum for the temporaries. *)

val table1 : unit -> instance list
(** The five Table I rows in paper order. *)

val random :
  Bistpath_util.Prng.t ->
  ops:int ->
  inputs:int ->
  instance
(** Random well-formed scheduled DFG over every operation kind, with a
    random valid module assignment: a random subset of the kinds in use
    shares one ALU (unit ALU1) where its steps allow, every other
    operation goes to a single-function unit. Every output satisfies
    [Dfg.make]'s and [Massign.make]'s validation, which property tests
    rely on. *)

val by_tag : string -> instance option
(** Look up an instance by tag: the Table I rows above ("ex1", "ex2",
    "Tseng1", "Tseng2", "Paulin") or an extension benchmark:
    - ["fir<N>"]: transposed-form FIR filter with N >= 2
      multiply-accumulate stages, list-scheduled with 2 multipliers and
      1 adder ("fir8" is the canonical tag, e.g. "fir32" a larger
      stress instance);
    - ["iir"]: direct-form-II biquad section, 5 multiplications, 2
      additions and 2 subtractions;
    - ["ewf"]: fifth-order elliptic wave filter (34 operations: 26
      additions, 8 multiplications), the classic large HLS benchmark,
      list-scheduled with 2 adders and 1 multiplier;
    - ["ar"]: four-section auto-regressive lattice filter, 8
      multiplications and 8 additions with the characteristic
      cross-coupled dependencies, list-scheduled with 2 multipliers and
      2 adders;
    - ["dct4"]: four-point DCT butterfly, 6 constant multiplications
      plus 8 additions/subtractions, list-scheduled with 2 multipliers
      and 2 add/sub units.

    "ex2" reconstructs the DFG taken from Papachristou et al. (DAC '91):
    module assignment 1/, 2*, 2+, 1&; 5 registers minimum. *)

val all_tags : string list
