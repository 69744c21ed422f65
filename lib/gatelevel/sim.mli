(** Bit-parallel logic simulation: 64 test patterns per pass, one bit
    lane per pattern.

    Every evaluation runs over a circuit compiled to flat arrays
    ({!compile}) and writes net words into a buffer without allocating
    per gate or per lane. {!eval_chunk} evaluates the whole circuit,
    optionally with one stuck-at net forced ({!Fault.inject}). Fault
    grading ({!Fault_sim}, {!Bist_sim}) goes through {!faulty_chunks}:
    the fault-free net words of every chunk are computed once
    ({!reference}), and each fault re-evaluates only its net's fanout
    cone. *)

type compiled
(** A circuit as flat arrays: per gate its function, inversion, input
    nets and output net, in topological order. *)

val compile : Circuit.t -> compiled
(** Raises [Invalid_argument] if a gate or port names a net outside
    [0, num_nets), a gate violates its kind's arity, a net has two
    drivers, a gate drives a primary input, or a gate reads a net that
    it or a later gate drives. {!Circuit.Builder} builds only circuits
    that pass. *)

type nets = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One 64-lane word per net, indexed by net id. *)

val nets : compiled -> nets
(** A fresh zeroed buffer for the compiled circuit. *)

val eval_chunk : compiled -> nets -> ?stuck:int * int64 -> int64 array -> unit
(** [eval_chunk k buf ?stuck inputs] evaluates one chunk, every gate,
    into [buf]:
    [inputs] has one word per primary input (in port order). With
    [~stuck:(net, word)] the net is forced to [word] (0L for stuck-at-0,
    -1L for stuck-at-1) before any gate reads it. Raises
    [Invalid_argument] on input arity mismatch or a buffer sized for
    another circuit. *)

type reference
(** A compiled circuit with the fault-free net words of every chunk of
    one pattern set, and the scratch {!faulty_chunks} grades faults in.
    It is mutable: one fault at a time. *)

val reference : compiled -> int64 array array -> reference
(** [reference k chunks] evaluates each chunk's input words
    ([chunks.(c)], as {!eval_chunk} takes them) fault-free and keeps
    every net word. *)

val good_word : reference -> int -> int -> int64
(** [good_word r c net] is [net]'s fault-free word in chunk [c]. *)

val faulty_chunks : reference -> int * int64 -> (int -> nets -> bool) -> bool
(** [faulty_chunks r (net, word) f] grades one stuck-at fault, given as
    {!eval_chunk}'s [~stuck]. The fault's static fanout cone (the gates
    that read [net] or a net such a gate drives, in gate order) is built
    once; per chunk, only the cone is re-evaluated over the fault-free
    words, which equals a whole-circuit {!eval_chunk} with [~stuck].
    Then [f c diff] is called, where [diff.{o}] is primary output
    port [o]'s faulty word XOR its fault-free word. A chunk whose
    fault-free [net] word already equals [word] cannot differ and is
    skipped without a call. The cone is evaluated gate by gate over
    every chunk not skipped before the first call. Calls run in chunk
    order and stop at the first that returns [true]; the result is
    whether one did. [diff] is overwritten by the next call. Raises
    [Invalid_argument] if [net] is out of range. *)

val detects : nets -> int64 -> bool
(** [detects diff live]: some word of [diff] (as {!faulty_chunks}
    passes it) is nonzero in a lane of [live]. *)

val gate_evals : reference -> int
(** Gates evaluated by {!faulty_chunks} on [r] so far: the cone size
    summed over the chunks evaluated. *)

val live_lanes : int -> int64
(** The lane mask of a chunk's first [size] patterns ([0 < size <= 64]):
    a partial last chunk's other lanes hold no pattern and must not be
    graded. *)

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
