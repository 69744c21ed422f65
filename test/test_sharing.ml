(* Tests for sharing degrees (Definitions 4 and 5 of the paper). *)

module B = Bistpath_benchmarks.Benchmarks
module Sharing = Bistpath_core.Sharing
module Prng = Bistpath_util.Prng
module Listx = Bistpath_util.Listx

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let ctx_ex1 () =
  let inst = B.ex1 () in
  Sharing.make inst.B.dfg inst.B.massign

let sd_of_variables () =
  let ctx = ctx_ex1 () in
  (* a, b feed both units; c is I_M1 and O_M2; d is I_M1 and O_M1;
     e, g only feed M2; f only O_M1; h only O_M2 *)
  List.iter
    (fun (v, sd) -> check Alcotest.int ("SD(" ^ v ^ ")") sd (Sharing.sd_var ctx v))
    [ ("a", 2); ("b", 2); ("c", 2); ("d", 2); ("e", 1); ("f", 1); ("g", 1); ("h", 1) ]

let sd_of_registers () =
  let ctx = ctx_ex1 () in
  (* {c,f}: I_M1 + O_M2 + O_M1 = 3 (the value the paper itself uses at
     the sixth coloring step) *)
  check Alcotest.int "SD({c,f})" 3 (Sharing.sd_vars ctx [ "c"; "f" ]);
  check Alcotest.int "SD({c})" 2 (Sharing.sd_vars ctx [ "c" ]);
  check Alcotest.int "SD({d})" 2 (Sharing.sd_vars ctx [ "d" ]);
  (* the paper's final register {b,d,g,h}: I_M1, O_M1, I_M2, O_M2 = 4 *)
  check Alcotest.int "SD({b,d,g,h})" 4 (Sharing.sd_vars ctx [ "b"; "d"; "g"; "h" ]);
  check Alcotest.int "SD(empty)" 0 (Sharing.sd_vars ctx [])

let delta_sd_walkthrough () =
  let ctx = ctx_ex1 () in
  (* third vertex f against {c} and {d}: f joins {c} *)
  check Alcotest.int "delta f into {c}" 1 (Sharing.delta_sd ctx [ "c" ] "f");
  check Alcotest.int "delta f into {d}" 0 (Sharing.delta_sd ctx [ "d" ] "f");
  (* h raises {e} and {d,g,b} by one *)
  check Alcotest.int "delta h into {e}" 1 (Sharing.delta_sd ctx [ "e" ] "h");
  check Alcotest.int "delta h into {d,g,b}" 1 (Sharing.delta_sd ctx [ "d"; "g"; "b" ] "h")

let units_and_sets () =
  let ctx = ctx_ex1 () in
  check (Alcotest.list Alcotest.string) "units" [ "M1"; "M2" ] (Sharing.units ctx);
  check Alcotest.int "|I_M1|" 4
    (Bistpath_dfg.Dfg.Sset.cardinal (Sharing.in_set ctx "M1"));
  check Alcotest.int "|O_M2|" 2
    (Bistpath_dfg.Dfg.Sset.cardinal (Sharing.out_set ctx "M2"));
  check Alcotest.int "unknown unit empty" 0
    (Bistpath_dfg.Dfg.Sset.cardinal (Sharing.in_set ctx "nope"))

let sources_and_dests () =
  let ctx = ctx_ex1 () in
  check (Alcotest.list Alcotest.string) "c produced by M2" [ "M2" ] (Sharing.source_units ctx "c");
  check (Alcotest.list Alcotest.string) "a has no producer" [] (Sharing.source_units ctx "a");
  check (Alcotest.list Alcotest.string) "a consumed by both" [ "M1"; "M2" ]
    (Sharing.dest_units ctx "a");
  check (Alcotest.list Alcotest.string) "h unconsumed" [] (Sharing.dest_units ctx "h")

(* Properties on random instances. *)

let with_random seed k =
  let rng = Prng.create seed in
  let inst = B.random rng ~ops:10 ~inputs:4 in
  k inst (Sharing.make inst.B.dfg inst.B.massign)

let prop_delta_consistent =
  QCheck.Test.make ~name:"delta_sd = sd(reg+v) - sd(reg)" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random seed (fun inst ctx ->
          let vars = Bistpath_dfg.Dfg.variables inst.B.dfg in
          List.for_all
            (fun v ->
              let reg = Listx.take 3 vars in
              Sharing.delta_sd ctx reg v
              = Sharing.sd_vars ctx (v :: reg) - Sharing.sd_vars ctx reg)
            vars))

let prop_sd_bounds =
  QCheck.Test.make ~name:"0 <= delta_sd <= SD(v); SD(reg) monotone" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random seed (fun inst ctx ->
          let vars = Bistpath_dfg.Dfg.variables inst.B.dfg in
          List.for_all
            (fun v ->
              let reg = Listx.take 2 vars in
              let d = Sharing.delta_sd ctx reg v in
              d >= 0 && d <= Sharing.sd_var ctx v
              && Sharing.sd_vars ctx (v :: reg) >= Sharing.sd_vars ctx reg)
            vars))

let prop_sd_var_equals_singleton =
  QCheck.Test.make ~name:"SD(v) = SD({v})" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random seed (fun inst ctx ->
          List.for_all
            (fun v -> Sharing.sd_var ctx v = Sharing.sd_vars ctx [ v ])
            (Bistpath_dfg.Dfg.variables inst.B.dfg)))

let prop_sd_bounded_by_2m =
  QCheck.Test.make ~name:"SD(reg) <= 2 * #units" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random seed (fun inst ctx ->
          let all = Bistpath_dfg.Dfg.variables inst.B.dfg in
          Sharing.sd_vars ctx all <= 2 * List.length (Sharing.units ctx)))

(* Unit sets are one-int masks: n parallel additions on n units. *)
let unit_limit () =
  let module Dfg = Bistpath_dfg.Dfg in
  let module Op = Bistpath_dfg.Op in
  let module Massign = Bistpath_dfg.Massign in
  let parallel n =
    let ids = List.init n (Printf.sprintf "%d") in
    let dfg =
      Dfg.make ~name:"wide"
        ~ops:
          (List.map
             (fun i -> { Op.id = "+" ^ i; kind = Op.Add; left = "a"; right = "b"; out = "o" ^ i })
             ids)
        ~inputs:[ "a"; "b" ] ~outputs:(List.map (( ^ ) "o") ids)
        ~schedule:(List.map (fun i -> ("+" ^ i, 1)) ids)
    in
    Sharing.make dfg
      (Massign.make dfg
         ~units:(List.map (fun i -> { Massign.mid = "U" ^ i; kinds = [ Op.Add ] }) ids)
         ~bind:(List.map (fun i -> ("+" ^ i, "U" ^ i)) ids))
  in
  (* one unit per bit of an OCaml int mask *)
  let max_units = 63 in
  check Alcotest.int "SD(a) at the limit" max_units (Sharing.sd_var (parallel max_units) "a");
  match parallel (max_units + 1) with
  | _ -> Alcotest.fail "accepted more units than a mask holds"
  | exception Invalid_argument _ -> ()

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    case "SD of ex1 variables" sd_of_variables;
    case "SD of ex1 registers" sd_of_registers;
    case "delta-SD walkthrough values" delta_sd_walkthrough;
    case "units and variable sets" units_and_sets;
    case "source/dest units" sources_and_dests;
  ]
  @ qcheck
      [
        prop_delta_consistent;
        prop_sd_bounds;
        prop_sd_var_equals_singleton;
        prop_sd_bounded_by_2m;
      ]
  @ [ case "at most max_units units" unit_limit ]
