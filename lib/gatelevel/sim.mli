(** Bit-parallel logic simulation: 64 test patterns per pass, one bit
    lane per pattern.

    Every evaluation runs over a circuit compiled to flat arrays
    ({!compile}) and writes net words into a buffer without allocating
    per gate or per lane. {!eval_nets} evaluates the whole circuit on
    one chunk, optionally with one stuck-at net forced. Fault
    grading ({!Fault_sim}, {!Bist_sim}) goes through {!faulty_chunks}:
    the fault-free net words of every chunk are computed once
    ({!reference}), and each fault re-evaluates only the gates of its
    net's fanout cone whose inputs it changed. *)

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

type reference
(** A compiled circuit with the fault-free net words of every chunk of
    one pattern set, and the scratch {!faulty_chunks} grades faults in.
    It is mutable: one fault at a time. *)

val reference : compiled -> int64 array array -> reference
(** [reference k chunks] evaluates each chunk's input words
    ([chunks.(c)]: one word per primary input, in port order)
    fault-free and keeps every net word. *)

val good_word : reference -> int -> int -> int64
(** [good_word r c net] is [net]'s fault-free word in chunk [c]. *)

val faulty_chunks : reference -> int * int64 -> (int -> nets -> bool) -> bool
(** [faulty_chunks r (net, word) f] grades one stuck-at fault, given as
    {!eval_nets}'s [~stuck]. Only the fault's fanout cone is
    re-evaluated over the fault-free words, event-driven: in gate order,
    a gate is evaluated (over every chunk not skipped) only when one of
    its inputs differs from its fault-free word in such a chunk. That
    equals a whole-circuit {!eval_nets} with [~stuck].
    Then [f c diff] is called, where [diff.{o}] is primary output
    port [o]'s faulty word XOR its fault-free word. A chunk whose
    fault-free [net] word already equals [word] cannot differ and is
    skipped without a call. The cone is evaluated before the first
    call. Calls run in chunk
    order and stop at the first that returns [true]; the result is
    whether one did. [diff] is overwritten by the next call. Raises
    [Invalid_argument] if [net] is out of range. *)

val detects : nets -> int64 -> bool
(** [detects diff live]: some word of [diff] (as {!faulty_chunks}
    passes it) is nonzero in a lane of [live]. *)

val gate_evals : reference -> int
(** Gates evaluated by {!faulty_chunks} on [r] so far: per fault, the
    gates evaluated times the chunks not skipped. *)

val live_lanes : int -> int64
(** The lane mask of a chunk's first [size] patterns ([0 < size <= 64]):
    a partial last chunk's other lanes hold no pattern and must not be
    graded. *)

val eval_nets : ?stuck:int * int64 -> Circuit.t -> int64 array -> int64 array
(** [eval_nets ?stuck c input_words] evaluates the circuit on one
    chunk and returns the word of every net (indexed by net id).
    [input_words] has one word per primary input (in port order). With
    [~stuck:(net, word)] the net is forced to [word] (0L for stuck-at-0,
    -1L for stuck-at-1) before any gate reads it. Raises
    [Invalid_argument] on arity mismatch. *)
