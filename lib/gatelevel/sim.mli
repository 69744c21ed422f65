(** Bit-parallel logic simulation: 64 test patterns per pass, one bit
    lane per pattern.

    Every evaluation — fault-free or with one stuck-at net forced — runs
    one kernel over a circuit compiled to flat arrays ({!compile}),
    writing net words into a reused buffer ({!nets}). Evaluating a chunk
    allocates nothing per gate or per lane; fault grading
    ({!Fault_sim}, {!Bist_sim}) compiles once and reuses one buffer for
    every fault and chunk. *)

type compiled
(** A circuit as flat arrays: per gate its function, inversion, input
    nets and output net, in topological order. *)

val compile : Circuit.t -> compiled
(** Raises [Invalid_argument] if a gate or port names a net outside
    [0, num_nets) or a gate violates its kind's arity. *)

type nets = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One 64-lane word per net, indexed by net id. *)

val nets : compiled -> nets
(** A fresh zeroed buffer for the compiled circuit. *)

val eval_chunk : compiled -> nets -> ?stuck:int * int64 -> int64 array -> unit
(** [eval_chunk k buf ?stuck inputs] evaluates one chunk into [buf]:
    [inputs] has one word per primary input (in port order). With
    [~stuck:(net, word)] the net is forced to [word] (0L for stuck-at-0,
    -1L for stuck-at-1) before any gate reads it. Raises
    [Invalid_argument] on input arity mismatch or a buffer sized for
    another circuit. *)

val eval : Circuit.t -> int64 array -> int64 array
(** [eval c input_words] evaluates the circuit; [input_words] has one
    word per primary input (in port order), the result one word per
    primary output. Raises [Invalid_argument] on arity mismatch. *)

val eval_nets : ?stuck:int * int64 -> Circuit.t -> int64 array -> int64 array
(** Like {!eval} but returns the value of every net (indexed by net id),
    with [~stuck] forcing a net as in {!eval_chunk}. *)

val eval_ints : Circuit.t -> int list -> int list
(** Single-pattern convenience: one integer per input port bit... no —
    one {e bit} per input net, given as 0/1 ints; returns output bits.
    Used by unit tests on small vectors. *)

val eval_words : Circuit.t -> width:int -> int list -> int list
(** Evaluate a circuit whose inputs form consecutive [width]-bit operands
    (LSB first): [eval_words c ~width [a; b]] drives operand values and
    decodes outputs as width-bit little-endian integers; a trailing
    group shorter than [width] (e.g. a carry-out) is decoded from the
    remaining bits. *)
