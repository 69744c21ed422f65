(** Partial-scan baseline (the non-BIST alternative the paper's
    introduction cites: Lee/Jha/Wolf DAC-93, Dey/Potkonjak/Roy VTS-94).

    Partial scan makes the sequential structure acyclic: every register
    on a combinational cycle of the S-graph is replaced by a scan
    register, after which combinational ATPG (our PODEM) suffices. The
    minimum feedback vertex set of the S-graph is the cheapest such
    register set; its area is mux-per-bit plus scan routing, much less
    than BILBO conversion, but the design is then tested from outside
    through the scan chain instead of testing itself. *)

val s_graph : Bistpath_datapath.Datapath.t -> (string * string) list
(** Register-to-register combinational dependencies: [(r1, r2)] iff some
    unit reads [r1] on a port and writes its result into [r2].
    Self-loops (r, r) are the self-adjacent registers. *)

val mfvs : Bistpath_datapath.Datapath.t -> string list
(** Exact minimum feedback vertex set of the S-graph (smallest register
    set whose scanning breaks every cycle), by subset enumeration in
    increasing size — the data paths in scope have at most a dozen
    registers. Deterministic (lexicographically first minimum). *)

val overhead_percent :
  ?width:int ->
  Bistpath_datapath.Datapath.t ->
  float
(** Scan-conversion area of the MFVS registers relative to the
    functional area — comparable to
    {!Bistpath_bist.Allocator.overhead_percent}. *)
