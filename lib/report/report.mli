(** Experiment drivers: each function regenerates one table or figure of
    the paper (see DESIGN.md §4 and EXPERIMENTS.md) as printable text.
    Shared by [bench/main.exe] and the [bin/synth] CLI. *)

type comparison = {
  instance : Bistpath_benchmarks.Benchmarks.instance;
  traditional : Bistpath_core.Flow.result;
  testable : Bistpath_core.Flow.result;
}

val compare_instance :
  ?width:int -> Bistpath_benchmarks.Benchmarks.instance -> comparison
(** Run both flows on one benchmark. *)

val table1 : ?width:int -> unit -> string
(** Design comparisons with BIST area overhead (registers, muxes,
    overhead %, reduction %) over the five paper benchmarks. *)

val table2 : ?width:int -> unit -> string
(** Minimal-area BIST solutions: the resource mix per design and flow. *)

val table3 : ?width:int -> unit -> string
(** Paulin example vs the RALLOC-like and SYNTEST-like baselines. *)

val fig2 : unit -> string
(** The ex1 scheduled DFG. *)

val fig4 : unit -> string
(** The ex1 variable conflict graph with SD and MCS annotations, plus the
    PVES and coloring trace of the testable allocator (the Section III
    walkthrough). *)

val fig5 : ?width:int -> unit -> string
(** The two ex1 data paths (testable vs traditional) with their minimal
    BIST solutions. *)

val fig1_3 : ?width:int -> unit -> string
(** Simple I-paths of the ex1 testable data path (the paper's generic
    I-path configurations, instantiated). *)

val fig6 : unit -> string
(** The five register-merge cases with their empirically measured effect
    on multiplexer inputs, on constructed scenarios. *)

val ablation : ?width:int -> unit -> string
(** Effect of switching off each ingredient of the testable allocator
    (SD-guided PVES, case preferences, CBILBO avoidance) across all
    benchmarks, including the extension benchmarks. *)

val width_sweep : unit -> string
(** Table I reductions as the datapath width grows (4..32 bits): the
    register/multiplier area ratio shifts, so the relative cost of a
    CBILBO — and with it the testable flow's edge — changes. *)

val testability : unit -> string
(** Gate-level testability of the module library: SCOAP profiles, PODEM
    fault classification (tested / proven-redundant), and the number of
    deterministic PODEM vectors vs LFSR patterns for full coverage. *)

val transparency : unit -> string
(** BIST overhead with the embedding space extended by one-hop
    transparent I-paths (a register generating patterns through an
    adder whose other port holds 0, etc.) — the generalization of
    Abadir-Breuer I-paths the paper's reference [8] suggests. At width 8. *)

val pareto : unit -> string
(** Area vs test-time Pareto fronts: modification gates against the
    number of test sessions, per benchmark (sharing one SA register
    saves gates but serializes sessions). At width 8. *)

val scan_vs_bist : unit -> string
(** The classical DFT trade the paper's introduction frames: partial
    scan (minimum feedback vertex set, external test) against BIST
    (register conversion, self-test) — area overheads side by side,
    with the scanned register sets. At width 8. *)

val io_sensitivity : unit -> string
(** Sensitivity of the Table I reductions to the cost of converting
    dedicated I/O registers (pad-ring registers are more expensive to
    modify than datapath registers): sweep the penalty from 1x to 3x.
    Only benchmarks with dedicated registers (Paulin and the extension
    set) move. At width 8. *)
