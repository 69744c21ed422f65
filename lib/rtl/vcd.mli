(** Value-change-dump (VCD) export of an interpreter trace, viewable in
    GTKWave & co: one wire per datapath register, one timestep per
    control step. *)

val dump_run :
  Bistpath_datapath.Datapath.t ->
  width:int ->
  inputs:(string * int) list ->
  string
(** Convenience: interpret the data path on [inputs] and render the
    trace. *)
