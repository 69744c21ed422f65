(** Multiple-input signature register: the response-compaction half of a
    BILBO-style test register. Same primitive feedback as {!Lfsr}, with
    the response word XOR-ed into the state every clock.

    The register is linear over GF(2): from the zero state, the
    signature of the XOR of two equally long response sequences is the
    XOR of their signatures ([run (a xor b) = run a xor run b]). So a
    faulty signature equals the fault-free one exactly when the error
    sequence (faulty XOR fault-free responses) has signature 0, which
    is how {!Bist_sim.grade} decides aliasing. *)

type t

val create : width:int -> t
(** Starts at the all-zero signature. *)

val absorb : t -> int -> unit
(** Clock once with the given response word. *)

val clock : width:int -> int -> int -> int
(** [clock ~width s word] is the state one clock after state [s] with
    response [word]: {!absorb} as a function of the state. *)

val signature : t -> int

val run : width:int -> int list -> int
(** Signature of a whole response sequence. *)

val aliasing_probability : width:int -> float
(** The classical 2^-width steady-state aliasing estimate. *)
