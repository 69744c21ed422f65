(** Deterministic pseudo-random number generator (SplitMix64).

    Used everywhere a randomized choice or synthetic workload is needed so
    that every experiment and property test is reproducible bit-for-bit.
    The interface mirrors the small subset of [Random.State] we need. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val split : t -> t
(** [split t] advances [t] by exactly one draw and returns a fresh
    generator whose stream is statistically independent of the parent's
    continuation (SplitMix64 stream split: the drawn value is remixed
    through the MurmurHash3 fmix64 finalizer to seed the child).

    Splitting is deterministic: the same parent state always yields the
    same child. Reference vectors (see [test_util.ml]):

    {[
      let t = create 42 in
      let c = split t in
      next_int64 c = 0x2559B167601B8DD1L;   (* child's first draw *)
      next_int64 t = 0x28EFE333B266F103L    (* parent continues as if
                                               one draw was consumed *)
    ]}

    Parallel workers should each receive one [split] child (split
    sequentially from a root generator in task order) so they draw from
    independent deterministic streams instead of sharing mutable state. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)
