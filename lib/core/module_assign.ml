module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Ugraph = Bistpath_graphs.Ugraph
module Clique_partition = Bistpath_graphs.Clique_partition
module Listx = Bistpath_util.Listx
module Telemetry = Bistpath_telemetry.Telemetry

let single_function dfg =
  Telemetry.with_span "massign" @@ fun () ->
  let ops = Array.of_list dfg.Dfg.ops in
  let n = Array.length ops in
  let step = Array.map (fun (o : Op.t) -> Dfg.cstep dfg o.id) ops in
  let compatible i j = ops.(i).Op.kind = ops.(j).Op.kind && step.(i) <> step.(j) in
  let edges = Listx.pairs (Listx.range 0 n) |> List.filter (fun (i, j) -> compatible i j) in
  let g = Ugraph.of_edges ~vertices:(Listx.range 0 n) edges in
  (* each operation's left, right and out variables, as ints *)
  let ids = Hashtbl.create 64 in
  let intern v =
    match Hashtbl.find_opt ids v with
    | Some k -> k
    | None ->
      let k = Hashtbl.length ids in
      Hashtbl.add ids v k;
      k
  in
  let vars = Array.map (fun (o : Op.t) -> [| intern o.left; intern o.right; intern o.out |]) ops in
  let shared_vars i j =
    let w = vars.(j) in
    Array.fold_left (fun k v -> if v = w.(0) || v = w.(1) || v = w.(2) then k + 1 else k) 0 vars.(i)
  in
  let cliques = Clique_partition.greedy ~weight:shared_vars g in
  let counter = Hashtbl.create 8 in
  let units_binds =
    List.map
      (fun clique ->
        let members = Ugraph.Iset.elements clique in
        let kind =
          match members with
          | i :: _ -> ops.(i).Op.kind
          | [] -> assert false
        in
        let c = (match Hashtbl.find_opt counter kind with Some n -> n | None -> 0) + 1 in
        Hashtbl.replace counter kind c;
        let mid = Printf.sprintf "%s%d" (Op.symbol kind) c in
        ( { Massign.mid; kinds = [ kind ] },
          List.map (fun i -> (ops.(i).Op.id, mid)) members ))
      cliques
  in
  Massign.make dfg
    ~units:(List.map fst units_binds)
    ~bind:(List.concat_map snd units_binds)

let alu_pack dfg =
  let width =
    List.fold_left
      (fun acc step -> max acc (List.length (Dfg.ops_in_step dfg step)))
      0
      (Listx.range 1 (Dfg.num_csteps dfg + 1))
  in
  let slots = Array.make (max width 1) [] in
  (* slot i collects operations, at most one per control step *)
  List.iter
    (fun step ->
      List.iteri
        (fun i (op : Op.t) -> slots.(i) <- slots.(i) @ [ op ])
        (Dfg.ops_in_step dfg step))
    (Listx.range 1 (Dfg.num_csteps dfg + 1));
  let units_binds =
    Array.to_list slots
    |> List.mapi (fun i ops ->
           let mid = Printf.sprintf "ALU%d" (i + 1) in
           let kinds = List.sort_uniq compare (List.map (fun (o : Op.t) -> o.kind) ops) in
           ({ Massign.mid; kinds }, List.map (fun (o : Op.t) -> (o.id, mid)) ops))
    |> List.filter (fun (_, binds) -> binds <> [])
  in
  Massign.make dfg
    ~units:(List.map fst units_binds)
    ~bind:(List.concat_map snd units_binds)
