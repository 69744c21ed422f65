(* Parse-back equivalence: the emitted Verilog, parsed back once per
   check (the ctx's lazy [rtl]), is matched against the in-memory data
   path, closing the emission loop. Like the other RTL rules these audit
   the emitted text itself, but against the data path rather than for
   internal consistency — an emitter bug (name collision, operand swap,
   select-table typo) is caught here even when the netlist is well
   formed. *)

module Verilog = Bistpath_rtl.Verilog
module Equiv = Bistpath_rtl.Equiv
open Rule

let error = Bistpath_resilience.Diagnostic.Error

(* A corrupted data path (severed interconnect, broken control table)
   may not be emittable at all; those defects belong to the dedicated
   structural rules (DP003, CTL001, ...), so the parse-back rules only
   apply when an RTL artifact exists to parse back. The datapath module
   is all the parse-back elaborates, so the primitives are left out. *)
let emitted ~width ?bist ?sessions datapath =
  match
    ( Bistpath_datapath.Control.build datapath,
      Verilog.emit ~width ?bist ?sessions datapath )
  with
  | _, rtl -> Some rtl
  | exception _ -> None

(* RTL005: structural equivalence of the parsed-back netlist. *)
let rtl005 ctx =
  match Lazy.force ctx.rtl with
  | None -> []
  | Some (Error diags) ->
    List.map
      (fun d ->
        v "RTL005" error ctx.design "emitted RTL is unparsable: %s"
          (Bistpath_resilience.Diagnostic.to_string d))
      diags
  | Some (Ok e) ->
    List.map
      (fun diff -> v "RTL005" error ctx.design "parse-back mismatch: %s" diff)
      (Equiv.structural ~width:ctx.width ?bist:ctx.bist ?sessions:ctx.sessions e
         ctx.datapath)

(* EQ002: random-vector simulation of the parsed netlist against the
   interpreter. Gated on [vectors] like EQ001; structural problems are
   RTL005's to report, so this rule stays quiet on them. *)
let eq002 ctx =
  match parsed_rtl ctx with
  | Some e when ctx.vectors > 0 -> (
    match fst (Equiv.functional ~vectors:ctx.vectors ~width:ctx.width e ctx.datapath) with
    | None -> []
    | Some m ->
      [
        v "EQ002" error ctx.design
          "parsed RTL disagrees with the interpreter on output %s \
           (expected %d, got %d) for vector %s"
          m.Equiv.output m.Equiv.expected m.Equiv.actual
          (String.concat ", "
             (List.map (fun (x, value) -> Printf.sprintf "%s=%d" x value) m.Equiv.vector));
      ])
  | Some _ | None -> []

let rules =
  [
    {
      id = "RTL005"; severity = error;
      title = "emitted RTL parses back structurally equivalent";
      pass = Rtl;
      run = rtl005;
    };
    {
      id = "EQ002"; severity = error;
      title = "parsed RTL diverges from the interpreter (random vectors)";
      pass = Rtl;
      run = eq002;
    };
  ]
