(** Multiple-input signature register: the response-compaction half of a
    BILBO-style test register. Same primitive feedback as {!Lfsr}, with
    the response word XOR-ed into the state every clock.

    The register is linear over GF(2): from the zero state, the
    signature of the XOR of two equally long response sequences is the
    XOR of their signatures. So a faulty signature equals the fault-free
    one exactly when the error sequence (faulty XOR fault-free
    responses) has signature 0, which is how {!Bist_sim} decides
    aliasing. *)

val clock : width:int -> int -> int -> int
(** [clock ~width s word] is the state one clock after state [s] with
    response [word]; folding it over a response sequence from state 0
    gives the sequence's signature. *)
