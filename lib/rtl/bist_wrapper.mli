(** Self-test wrapper generation: the complete BIST architecture around
    an emitted data path.

    The wrapper sequences the test sessions chosen by the allocation: it
    resets the data path, asserts [test_mode] for a programmable number
    of clocks (one LFSR period by default), compares the signature taps
    of the session's signature-analysis registers against golden
    parameters, then moves to the next session; [done]/[pass] report the
    outcome. Golden signatures are module parameters (defaults 0), filled
    from {!golden_signatures} — a simulation of the fault-free emitted
    netlist — when given; the wrapper's header comment says which. *)

type golden = { session : int; rid : string; signature : int }

val golden_signatures :
  ?width:int ->
  ?patterns:int ->
  ?faulty_unit:string * (width:int -> int -> int -> int) ->
  ?emitted:string ->
  Bistpath_datapath.Datapath.t ->
  Bistpath_bist.Allocator.solution ->
  Bistpath_bist.Session.t ->
  golden list
(** The fault-free signature of each session's signature registers: the
    data path is emitted with its session overrides, parsed back, and
    each session clocked for [patterns] (default 2^width - 1) cycles of
    test mode ({!Equiv.test_signatures}) — exactly what the [sig_*] taps
    show. [emitted] is that data path module when the caller has
    already emitted it ([Verilog.emit ~width ~bist:sol ~sessions dp]);
    it is then parsed as given, not emitted again. [faulty_unit]
    replaces the named unit's function. Raises
    [Invalid_argument] if a tested unit's embedding uses a transparent
    via (the emitted overrides cover simple I-paths only). *)

val emit :
  ?width:int ->
  ?golden:golden list ->
  Bistpath_datapath.Datapath.t ->
  Bistpath_bist.Allocator.solution ->
  Bistpath_bist.Session.t ->
  string
(** Verilog source of module [<name>_bist]; instantiate together with
    {!Verilog.primitives} and [Verilog.emit ~bist ~sessions]. Each
    session runs 2^width - 1 patterns. With [golden] (typically from
    {!golden_signatures}) the real fault-free signatures are
    baked in as the parameter defaults, making the wrapper ready to
    detect faults out of the box. *)
