module Json = Bistpath_util.Json

type t = Schedule | Rtl | Report

let name = function Schedule -> "schedule" | Rtl -> "rtl" | Report -> "report"

(* Bump a stage's version whenever its payload encoding *or* the
   semantics of the computation it memoizes change: the version is
   hashed into every key, so old entries become unreachable (and
   eventually GC'd) instead of being served under wrong assumptions. *)
let schema_version = function Schedule -> 1 | Rtl -> 1 | Report -> 1

let key stage ~inputs =
  Digest.to_hex
    (Digest.string
       (Json.canonical
          (Json.Obj
             [
               ("stage", Json.Str (name stage));
               ("schema", Json.Num (float_of_int (schema_version stage)));
               ("inputs", inputs);
             ])))
