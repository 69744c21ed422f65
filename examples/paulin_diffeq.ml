(* The paper's headline benchmark: the Paulin/HAL differential-equation
   solver. Reproduces the Table III comparison (our allocation vs the
   RALLOC-like and SYNTEST-like baselines), shows the chosen BIST
   embeddings and test sessions, and validates the configuration with a
   gate-level stuck-at coverage simulation.

   Run with: dune exec examples/paulin_diffeq.exe *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Ralloc = Bistpath_core.Ralloc
module Syntest = Bistpath_core.Syntest
module Resource = Bistpath_bist.Resource
module Session = Bistpath_bist.Session
module Bist_sim = Bistpath_gatelevel.Bist_sim

let show_counts counts =
  [ Resource.Tpg; Resource.Sa; Resource.Bilbo; Resource.Cbilbo ]
  |> List.map (fun s ->
         Printf.sprintf "%s=%d" (Resource.style_label s)
           (match List.assoc_opt s counts with Some n -> n | None -> 0))
  |> String.concat " "

let () =
  let inst = B.paulin () in
  Format.printf "%a@." Bistpath_dfg.Dfg.pp inst.B.dfg;
  Format.printf "loop write-backs: x1->x, y1->y, u1->u (carried registers)@.@.";

  let ours =
    Flow.run ~style:(Flow.Testable Bistpath_core.Testable_alloc.default_options)
      inst.B.dfg inst.B.massign ~policy:inst.B.policy
  in
  Format.printf "=== our allocation ===@.%a@." Flow.pp_result ours;
  Format.printf "sessions: %a@.@." Session.pp ours.Flow.sessions;

  let r = Ralloc.run inst.B.dfg inst.B.massign ~policy:inst.B.policy in
  Format.printf "=== RALLOC-like baseline ===@.";
  Format.printf "registers: %d, self-adjacent: {%s}, %s@.@."
    (Bistpath_datapath.Regalloc.num_registers r.Ralloc.regalloc)
    (String.concat "," r.Ralloc.self_adjacent)
    (show_counts (Ralloc.style_counts r));

  let s = Syntest.run inst.B.dfg ~policy:inst.B.policy in
  Format.printf "=== SYNTEST-like baseline ===@.";
  Format.printf "module allocation: %s, registers: %d, %s@.@."
    (Bistpath_dfg.Massign.describe s.Syntest.massign inst.B.dfg)
    (Bistpath_datapath.Regalloc.num_registers s.Syntest.regalloc)
    (show_counts (Syntest.style_counts s));

  let rep = Bist_sim.run ~width:8 ~pattern_count:255 ours.Flow.datapath ours.Flow.bist in
  Format.printf "=== gate-level validation of our configuration ===@.%a@.@." Bist_sim.pp rep;

  (* The synthesized data path really is the loop body: iterate it, with
     x1/y1/u1 flowing back into the x/y/u registers, and watch the Euler
     integration advance. *)
  Format.printf "=== four Euler iterations on the data path itself ===@.";
  let inputs = [ ("x", 0); ("y", 64); ("u", 16); ("dx", 1); ("a", 8); ("c3", 3) ] in
  let iterations =
    Bistpath_datapath.Interp.run_iterations ours.Flow.datapath ~policy:inst.B.policy
      ~width:8 ~iterations:4 ~inputs
  in
  List.iteri
    (fun i outs ->
      Format.printf "  iter %d:" (i + 1);
      List.iter (fun (v, x) -> Format.printf " %s=%d" v x) outs;
      Format.printf "@.")
    iterations;

  (* RTL self-test: golden signatures simulated on the emitted netlist *)
  let goldens =
    Bistpath_rtl.Bist_wrapper.golden_signatures ours.Flow.datapath ours.Flow.bist
      ours.Flow.sessions
  in
  Format.printf "@.=== RTL self-test golden signatures ===@.";
  List.iter
    (fun (g : Bistpath_rtl.Bist_wrapper.golden) ->
      Format.printf "  session %d: %s = 0x%02X@." g.session g.rid g.signature)
    goldens;
  Format.printf
    "  (emit the full architecture with: dune exec bin/synth.exe -- rtl Paulin --wrapper)@."
