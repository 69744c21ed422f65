(** BIST register styles and their area cost.

    A register accumulates roles over the modules it helps test; the
    cheapest style honoring all roles:

    - TPG for one or more modules: [Tpg] (an LFSR-capable register);
    - SA for one or more modules, one per session: [Sa] (MISR-capable);
    - both TPG roles and SA roles, but never both for the same module:
      [Bilbo] (mode chosen per test session);
    - TPG and SA {e for the same module} (head and tail of the module's
      I-path configuration coincide): [Cbilbo], able to generate and
      compact concurrently. *)

type style = Normal | Tpg | Sa | Bilbo | Cbilbo

val style_label : style -> string
(** "none", "TPG", "SA", "TPG/SA", "CBILBO" — Table II's vocabulary
    ([Bilbo] prints as "TPG/SA"). *)

type role = Generates of string | Compacts of string
(** TPG (resp. SA) duty for the named module's test. *)

val style_of_roles : role list -> style
(** Cheapest style covering the given duties. *)

val delta_gates :
  Bistpath_datapath.Area.model -> width:int -> style -> int
(** Extra gates over a plain register. 0 for [Normal]. *)
