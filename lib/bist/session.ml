module Ipath = Bistpath_ipath.Ipath
module Budget = Bistpath_resilience.Budget

type t = { sessions : string list list }

let schedule ?(budget = Budget.unlimited) (sol : Allocator.solution) =
  if Budget.should_stop budget then
    (* Degenerate but always-valid fallback under cancellation: one unit
       per session trivially satisfies every conflict constraint. *)
    { sessions = List.map (fun (e : Ipath.embedding) -> [ e.Ipath.mid ]) sol.embeddings }
  else
    let session = Allocator.sessions sol in
    let count = Array.fold_left (fun n s -> max n (s + 1)) 0 session in
    let members s =
      List.filteri (fun i _ -> session.(i) = s) sol.embeddings
      |> List.map (fun (e : Ipath.embedding) -> e.Ipath.mid)
    in
    { sessions = List.init count members }

let num_sessions t = List.length t.sessions

let pp ppf t =
  List.iteri
    (fun i units ->
      Format.fprintf ppf "session %d: %s@ " (i + 1) (String.concat ", " units))
    t.sessions
