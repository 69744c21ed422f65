module Lifetime = Bistpath_dfg.Lifetime
module Interval = Bistpath_graphs.Interval
module Regalloc = Bistpath_datapath.Regalloc

let allocate dfg ~policy =
  let spans = Lifetime.spans ~policy dfg in
  let ordered =
    List.sort
      (fun (v1, s1) (v2, s2) ->
        compare
          (s1.Interval.birth, s1.Interval.death, v1)
          (s2.Interval.birth, s2.Interval.death, v2))
      spans
  in
  (* classes: (variables, death of latest occupant) in creation order *)
  let classes : (string list * int) list ref = ref [] in
  List.iter
    (fun (v, s) ->
      let rec place acc = function
        | [] -> List.rev (([ v ], s.Interval.death) :: acc)
        | (vars, death) :: rest ->
          if death <= s.Interval.birth then
            List.rev_append acc ((v :: vars, s.Interval.death) :: rest)
          else place ((vars, death) :: acc) rest
      in
      classes := place [] !classes)
    ordered;
  Regalloc.make
    (List.mapi
       (fun i (vars, _) -> (Printf.sprintf "R%d" (i + 1), List.rev vars))
       !classes)
