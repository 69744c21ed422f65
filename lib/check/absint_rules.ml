(* Proof-carrying rules backed by the abstract-interpretation engine
   (lib/absint). Every finding embeds the interval witness that
   justifies it, so a report line is checkable by hand against the
   documented Op.eval semantics.

   Severity policy: the uniform-width data path implements mod-2^width
   unsigned arithmetic and a guarded division by design, so *feasible*
   wrap-around or division-by-zero over full-range inputs is the normal
   semantics and stays silent. The rules speak up when the analysis can
   *prove* something: a certain wrap, a certain zero divisor, a
   constant net, a mux leg or controller state no reachable execution
   selects, or a read that beats the first write. Feasible-but-unproven
   wrap/zero-divisor findings are reported only when the user asserted
   input ranges (--assume) that still admit the event — then the
   assertion, not the analysis, is what made the claim checkable. *)

open Rule
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Datapath = Bistpath_datapath.Datapath
module Interval = Bistpath_absint.Interval
module Absint = Bistpath_absint.Absint

let error = Bistpath_resilience.Diagnostic.Error
let warning = Bistpath_resilience.Diagnostic.Warning

let solve ctx =
  Absint.solve_dfg ~assumes:ctx.assumes ~width:ctx.width ~policy:ctx.policy ctx.dfg

let solve_ctl ctx =
  match ctx.control with
  | None -> None
  | Some control ->
      Some
        (Absint.solve_control ~assumes:ctx.assumes ~width:ctx.width ctx.datapath
           control)

let assumed ctx v = List.mem_assoc v ctx.assumes

(* ABS001: an arithmetic operation the value analysis proves (Must) or,
   under asserted input ranges, still admits (May) a mod-2^width
   wrap-around. *)
let abs001 ctx =
  List.concat_map
    (fun (f : Absint.op_facts) ->
      let witness () =
        Printf.sprintf "%s %s %s with %s ∈ %s, %s ∈ %s at width %d" f.Absint.op.Op.left
          (Op.symbol f.Absint.op.Op.kind) f.Absint.op.Op.right f.Absint.op.Op.left
          (Interval.to_string f.Absint.left_v) f.Absint.op.Op.right
          (Interval.to_string f.Absint.right_v) ctx.width
      in
      match f.Absint.overflow with
      | Interval.Must ->
          [ v "ABS001" error f.Absint.op.Op.id
              "every execution wraps mod 2^%d: %s always exceeds %d (result %s)"
              ctx.width (witness ())
              ((1 lsl ctx.width) - 1)
              (Interval.to_string f.Absint.out_v) ]
      | Interval.May
        when assumed ctx f.Absint.op.Op.left || assumed ctx f.Absint.op.Op.right ->
          [ v "ABS001" warning f.Absint.op.Op.id
              "the asserted ranges still admit a wrap mod 2^%d: %s" ctx.width
              (witness ()) ]
      | Interval.May | Interval.No -> [])
    (solve ctx).Absint.op_facts

(* ABS002: a division whose divisor range proves (or, under asserted
   ranges, still admits) zero — the emitted guard then forces the
   all-ones word. *)
let abs002 ctx =
  List.concat_map
    (fun (f : Absint.op_facts) ->
      let witness () =
        Printf.sprintf "divisor %s ∈ %s" f.Absint.op.Op.right
          (Interval.to_string f.Absint.right_v)
      in
      match f.Absint.div_by_zero with
      | Interval.Must ->
          [ v "ABS002" error f.Absint.op.Op.id
              "division by zero is certain: %s, so the result is forced to %d"
              (witness ())
              ((1 lsl ctx.width) - 1) ]
      | Interval.May when assumed ctx f.Absint.op.Op.right ->
          [ v "ABS002" warning f.Absint.op.Op.id
              "the asserted range still admits a zero divisor: %s" (witness ()) ]
      | Interval.May | Interval.No -> [])
    (solve ctx).Absint.op_facts

(* ABS003: a multiplexer leg (register writer mux or unit port mux) no
   reachable control step ever selects — pure interconnect area. *)
let abs003 ctx =
  match solve_ctl ctx with
  | None -> []
  | Some cr ->
      let writer_leg rid i =
        match List.assoc_opt rid ctx.datapath.Datapath.reg_writers with
        | Some ws -> (
            match List.nth_opt ws i with
            | Some (Datapath.From_unit m) -> Printf.sprintf "unit %s" m
            | Some (Datapath.From_port p) -> Printf.sprintf "pin %s" p
            | None -> "out of range")
        | None -> "out of range"
      in
      List.concat_map
        (fun (rf : Absint.reg_facts) ->
          List.map
            (fun i ->
              v "ABS003" warning rf.Absint.rid
                "writer mux leg %d (%s) is never selected by any reachable control step [0,%d]"
                i
                (writer_leg rf.Absint.rid i)
                (cr.Absint.horizon + 1))
            rf.Absint.dead_writers)
        cr.Absint.regs
      @ List.map
          (fun (l : Absint.port_leg) ->
            v "ABS003" warning l.Absint.leg_mid
              "%s-port mux leg %d (register %s) is never selected by any reachable control step [0,%d]"
              (match l.Absint.side with `L -> "left" | `R -> "right")
              l.Absint.leg_index l.Absint.source
              (cr.Absint.horizon + 1))
          cr.Absint.dead_port_legs

(* ABS004: a control-table entry at a counter state the abstract step
   counter (reset 0, increment, saturate at T+1) can never reach —
   the reachability superset of CTL001's syntactic index check. *)
let abs004 ctx =
  match solve_ctl ctx with
  | None -> []
  | Some cr ->
      List.map
        (fun idx ->
          v "ABS004" error ctx.design
            "control step %d is unreachable: the step counter's reachable states are [0,%d] (reset 0, saturation at %d)"
            idx
            (cr.Absint.horizon + 1)
            (cr.Absint.horizon + 1))
        cr.Absint.unreachable

(* ABS005: a net the analysis proves constant. A constant-zero net
   consumed as a divisor is reported once, by ABS002, at the division
   where it does damage. *)
let abs005 ctx =
  List.concat_map
    (fun (f : Absint.op_facts) ->
      match Interval.is_const f.Absint.out_v with
      | None -> []
      | Some k ->
          let feeds_divisor =
            k = 0
            && List.exists
                 (fun (c : Op.t) ->
                   c.Op.kind = Op.Div && String.equal c.Op.right f.Absint.op.Op.out)
                 (Dfg.consumers ctx.dfg f.Absint.op.Op.out)
          in
          if feeds_divisor then []
          else
            [ v "ABS005" warning f.Absint.op.Op.out
                "net is provably constant %s: %s %s %s with %s ∈ %s, %s ∈ %s"
                (Interval.to_string f.Absint.out_v)
                f.Absint.op.Op.left
                (Op.symbol f.Absint.op.Op.kind)
                f.Absint.op.Op.right f.Absint.op.Op.left
                (Interval.to_string f.Absint.left_v)
                f.Absint.op.Op.right
                (Interval.to_string f.Absint.right_v) ])
    (solve ctx).Absint.op_facts

(* ABS006: a unit reads a register at a step before the register's
   first write — the value consumed is the reset word, not a computed
   or loaded one. *)
let abs006 ctx =
  match solve_ctl ctx with
  | None -> []
  | Some cr ->
      List.map
        (fun (step, opid, rid) ->
          let first_write =
            List.find_map
              (fun (rf : Absint.reg_facts) ->
                if String.equal rf.Absint.rid rid then
                  match rf.Absint.write_steps with s :: _ -> Some s | [] -> None
                else None)
              cr.Absint.regs
          in
          v "ABS006" error opid
            "reads register %s at step %d before its first write%s: the register still holds the reset interval {0}"
            rid step
            (match first_write with
            | Some s -> Printf.sprintf " (first write is at step %d)" s
            | None -> " (never written)"))
        cr.Absint.uninit_reads

let rules =
  [
    { id = "ABS001"; severity = error;
      title = "arithmetic provably wraps mod 2^width";
      run = abs001;
    };
    { id = "ABS002"; severity = error;
      title = "reachable division by zero";
      run = abs002;
    };
    { id = "ABS003"; severity = warning;
      title = "dead multiplexer leg (never-selected interconnect)";
      run = abs003;
    };
    { id = "ABS004"; severity = error;
      title = "unreachable controller state";
      run = abs004;
    };
    { id = "ABS005"; severity = warning;
      title = "provably constant net";
      run = abs005;
    };
    { id = "ABS006"; severity = error;
      title = "register read before first write";
      run = abs006;
    };
  ]
