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
  match Verilog.emit ~width ?bist ?sessions datapath with
  | rtl -> Some rtl
  | exception _ -> None

let finding ctx (f : Equiv.finding) = v f.Equiv.rule error ctx.design "%s" f.Equiv.message

(* RTL005: structural equivalence of the parsed-back netlist. *)
let rtl005 ctx _ =
  List.map (finding ctx)
    (match Lazy.force ctx.rtl with
    | None -> []
    | Some (Error unparsable) -> Equiv.findings ~unparsable ()
    | Some (Ok e) ->
      Equiv.findings
        ~structural:
          (Equiv.structural ~width:ctx.width ?bist:ctx.bist ?sessions:ctx.sessions e
             ctx.datapath)
        ())

(* EQ002: random-vector simulation of the parsed netlist against the
   interpreter. Gated on [vectors] like EQ001; structural problems are
   RTL005's to report, so this rule stays quiet on them. *)
let eq002 ctx _ =
  match parsed_rtl ctx with
  | Some e when ctx.vectors > 0 ->
    List.map (finding ctx)
      (Equiv.findings
         ?functional:
           (fst
              (Equiv.functional ~vectors:ctx.vectors ~width:ctx.width e ctx.datapath))
         ())
  | Some _ | None -> []

let rules =
  [
    {
      id = "RTL005"; severity = error;
      title = "emitted RTL parses back structurally equivalent";
      run = rtl005;
    };
    {
      id = "EQ002"; severity = error;
      title = "parsed RTL diverges from the interpreter (random vectors)";
      run = eq002;
    };
  ]
