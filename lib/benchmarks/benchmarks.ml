module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Massign = Bistpath_dfg.Massign
module Scheduler = Bistpath_dfg.Scheduler
module Prng = Bistpath_util.Prng
module Listx = Bistpath_util.Listx

type instance = {
  tag : string;
  dfg : Dfg.t;
  massign : Massign.t;
  policy : Bistpath_dfg.Policy.t;
}

let op id kind left right out = { Op.id; kind; left; right; out }

(* Fig. 2 reconstruction; see DESIGN.md §3 for the consistency argument. *)
let ex1 () =
  let ops =
    [
      op "+1" Op.Add "a" "b" "d";
      op "*1" Op.Mul "a" "b" "c";
      op "+2" Op.Add "c" "d" "f";
      op "*2" Op.Mul "e" "g" "h";
    ]
  in
  let dfg =
    Dfg.make ~name:"ex1" ~ops ~inputs:[ "a"; "b"; "e"; "g" ] ~outputs:[ "f"; "h" ]
      ~schedule:[ ("+1", 1); ("*1", 1); ("+2", 2); ("*2", 3) ]
  in
  let massign =
    Massign.make dfg
      ~units:[ { mid = "M1"; kinds = [ Op.Add ] }; { mid = "M2"; kinds = [ Op.Mul ] } ]
      ~bind:[ ("+1", "M1"); ("+2", "M1"); ("*1", "M2"); ("*2", "M2") ]
  in
  { tag = "ex1"; dfg; massign; policy = Bistpath_dfg.Policy.default }

let ex2 () =
  let ops =
    [
      op "*1" Op.Mul "a" "b" "t1";
      op "*2" Op.Mul "c" "d" "t2";
      op "+1" Op.Add "a" "c" "t3";
      op "/1" Op.Div "t1" "t2" "t4";
      op "+2" Op.Add "t3" "e" "t5";
      op "+3" Op.Add "e" "d" "t6";
      op "*3" Op.Mul "t4" "t5" "t7";
      op "&1" Op.And "t6" "f" "t8";
      op "+4" Op.Add "t7" "t8" "t9";
    ]
  in
  let dfg =
    Dfg.make ~name:"ex2" ~ops
      ~inputs:[ "a"; "b"; "c"; "d"; "e"; "f" ]
      ~outputs:[ "t9" ]
      ~schedule:
        [
          ("*1", 1); ("*2", 1); ("+1", 1);
          ("/1", 2); ("+2", 2); ("+3", 2);
          ("*3", 3); ("&1", 3);
          ("+4", 4);
        ]
  in
  let massign =
    Massign.make dfg
      ~units:
        [
          { mid = "MUL1"; kinds = [ Op.Mul ] };
          { mid = "MUL2"; kinds = [ Op.Mul ] };
          { mid = "DIV"; kinds = [ Op.Div ] };
          { mid = "ADD1"; kinds = [ Op.Add ] };
          { mid = "ADD2"; kinds = [ Op.Add ] };
          { mid = "AND"; kinds = [ Op.And ] };
        ]
      ~bind:
        [
          ("*1", "MUL1"); ("*3", "MUL1"); ("*2", "MUL2");
          ("/1", "DIV");
          ("+1", "ADD1"); ("+2", "ADD1"); ("+4", "ADD1"); ("+3", "ADD2");
          ("&1", "AND");
        ]
  in
  { tag = "ex2"; dfg; massign; policy = Bistpath_dfg.Policy.default }

let tseng_dfg () =
  let ops =
    [
      op "+1" Op.Add "a" "b" "t1";
      op "+2" Op.Add "c" "d" "t2";
      op "*1" Op.Mul "t1" "e" "t3";
      op "/1" Op.Div "t2" "t1" "t4";
      op "-1" Op.Sub "t3" "t4" "t5";
      op "|1" Op.Or "e" "f" "t6";
      op "+3" Op.Add "t5" "t6" "t7";
      op "&1" Op.And "t5" "a" "t8";
    ]
  in
  Dfg.make ~name:"tseng" ~ops
    ~inputs:[ "a"; "b"; "c"; "d"; "e"; "f" ]
    ~outputs:[ "t7"; "t8" ]
    ~schedule:
      [
        ("+1", 1); ("+2", 1);
        ("*1", 2); ("/1", 2);
        ("-1", 3); ("|1", 3);
        ("+3", 4); ("&1", 4);
      ]

let tseng1 () =
  let dfg = tseng_dfg () in
  let massign =
    Massign.make dfg
      ~units:
        [
          { mid = "ADD1"; kinds = [ Op.Add ] };
          { mid = "ADD2"; kinds = [ Op.Add ] };
          { mid = "MUL"; kinds = [ Op.Mul ] };
          { mid = "SUB"; kinds = [ Op.Sub ] };
          { mid = "AND"; kinds = [ Op.And ] };
          { mid = "OR"; kinds = [ Op.Or ] };
          { mid = "DIV"; kinds = [ Op.Div ] };
        ]
      ~bind:
        [
          ("+1", "ADD1"); ("+3", "ADD1"); ("+2", "ADD2");
          ("*1", "MUL"); ("/1", "DIV"); ("-1", "SUB");
          ("|1", "OR"); ("&1", "AND");
        ]
  in
  { tag = "Tseng1"; dfg; massign; policy = Bistpath_dfg.Policy.default }

let tseng2 () =
  let dfg = tseng_dfg () in
  let alu = [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.And; Op.Or ] in
  let massign =
    Massign.make dfg
      ~units:
        [
          { mid = "ADD"; kinds = [ Op.Add ] };
          { mid = "ALU1"; kinds = alu };
          { mid = "ALU2"; kinds = alu };
          { mid = "ALU3"; kinds = alu };
        ]
      ~bind:
        [
          ("+1", "ADD");
          ("+2", "ALU1"); ("*1", "ALU1"); ("-1", "ALU1");
          ("/1", "ALU2"); ("+3", "ALU2");
          ("|1", "ALU3"); ("&1", "ALU3");
        ]
  in
  { tag = "Tseng2"; dfg; massign; policy = Bistpath_dfg.Policy.default }

(* Differential-equation solver: y'' + 3xy' + 3y = 0 integrated by Euler
   steps; the loop-body DFG of Paulin & Knight. The comparison x1 < a is
   modelled as the subtraction producing the condition variable. *)
let paulin () =
  let ops =
    [
      op "*1" Op.Mul "c3" "x" "t1";
      op "*2" Op.Mul "u" "dx" "t2";
      op "+1" Op.Add "x" "dx" "x1";
      op "*3" Op.Mul "t1" "t2" "t3";
      op "*4" Op.Mul "c3" "y" "t4";
      op "-3" Op.Sub "x1" "a" "cc";
      op "*5" Op.Mul "dx" "t4" "t5";
      op "-1" Op.Sub "u" "t3" "t6";
      op "-2" Op.Sub "t6" "t5" "u1";
      op "+2" Op.Add "y" "t2" "y1";
    ]
  in
  let dfg =
    Dfg.make ~name:"paulin" ~ops
      ~inputs:[ "x"; "y"; "u"; "dx"; "a"; "c3" ]
      ~outputs:[ "x1"; "y1"; "u1"; "cc" ]
      ~schedule:
        [
          ("*1", 1); ("*2", 1); ("+1", 1);
          ("*3", 2); ("*4", 2); ("-3", 2);
          ("*5", 3); ("-1", 3);
          ("-2", 4); ("+2", 4);
        ]
  in
  let massign =
    Massign.make dfg
      ~units:
        [
          { mid = "ADD"; kinds = [ Op.Add ] };
          { mid = "MUL1"; kinds = [ Op.Mul ] };
          { mid = "MUL2"; kinds = [ Op.Mul ] };
          { mid = "SUB"; kinds = [ Op.Sub ] };
        ]
      ~bind:
        [
          ("+1", "ADD"); ("+2", "ADD");
          ("*1", "MUL1"); ("*3", "MUL1"); ("*5", "MUL1");
          ("*2", "MUL2"); ("*4", "MUL2");
          ("-3", "SUB"); ("-1", "SUB"); ("-2", "SUB");
        ]
  in
  { tag = "Paulin"; dfg; massign;
    policy = Bistpath_dfg.Policy.with_carried [ ("x1", "x"); ("y1", "y"); ("u1", "u") ] }

let table1 () = [ ex1 (); ex2 (); tseng1 (); tseng2 (); paulin () ]

(* Greedy module assignment used by the generated benchmarks: first-fit
   each operation onto a unit of its kind that is free in its control
   step, opening units as needed. An operation whose kind is in [alu]
   tries ALU1 first, the one unit that performs those kinds. *)
let first_fit_assignment ~alu dfg =
  let units = Hashtbl.create 8 in
  (* kind -> (mid * busy steps ref) list, newest last *)
  let bind = ref [] in
  let counter = Hashtbl.create 8 in
  let alu_busy = ref [] in
  List.iter
    (fun (o : Op.t) ->
      let step = Dfg.cstep dfg o.id in
      let existing = match Hashtbl.find_opt units o.kind with Some l -> l | None -> [] in
      let candidates = if List.mem o.kind alu then ("ALU1", alu_busy) :: existing else existing in
      let free = List.find_opt (fun (_, busy) -> not (List.mem step !busy)) candidates in
      let mid, busy =
        match free with
        | Some (mid, busy) -> (mid, busy)
        | None ->
          let n = (match Hashtbl.find_opt counter o.kind with Some n -> n | None -> 0) + 1 in
          Hashtbl.replace counter o.kind n;
          let mid = Printf.sprintf "%s%d" (Op.symbol o.kind) n in
          let busy = ref [] in
          Hashtbl.replace units o.kind (existing @ [ (mid, busy) ]);
          (mid, busy)
      in
      busy := step :: !busy;
      bind := (o.id, mid) :: !bind)
    dfg.Dfg.ops;
  let unit_list =
    Hashtbl.fold
      (fun kind l acc -> List.map (fun (mid, _) -> { Massign.mid; kinds = [ kind ] }) l @ acc)
      units
      (if !alu_busy = [] then [] else [ { Massign.mid = "ALU1"; kinds = alu } ])
    |> List.sort (fun a b -> compare a.Massign.mid b.Massign.mid)
  in
  Massign.make dfg ~units:unit_list ~bind:!bind

let single_function_assignment = first_fit_assignment ~alu:[]

let fir ~taps =
  if taps < 2 then invalid_arg "Benchmarks.fir: taps must be >= 2";
  let inputs =
    List.concat_map
      (fun i -> [ Printf.sprintf "x%d" i; Printf.sprintf "h%d" i ])
      (Listx.range 0 taps)
  in
  let mults =
    List.map
      (fun i ->
        op
          (Printf.sprintf "*%d" i)
          Op.Mul
          (Printf.sprintf "x%d" i)
          (Printf.sprintf "h%d" i)
          (Printf.sprintf "p%d" i))
      (Listx.range 0 taps)
  in
  let adds =
    List.map
      (fun i ->
        let acc_in = if i = 1 then "p0" else Printf.sprintf "s%d" (i - 1) in
        op (Printf.sprintf "+%d" i) Op.Add acc_in (Printf.sprintf "p%d" i)
          (Printf.sprintf "s%d" i))
      (Listx.range 1 taps)
  in
  let problem =
    {
      Scheduler.name = Printf.sprintf "fir%d" taps;
      ops = mults @ adds;
      inputs;
      outputs = [ Printf.sprintf "s%d" (taps - 1) ];
    }
  in
  let schedule = Scheduler.list_schedule problem ~resources:[ (Op.Mul, 2); (Op.Add, 1) ] in
  let dfg = Scheduler.to_dfg problem schedule in
  {
    tag = problem.name;
    dfg;
    massign = single_function_assignment dfg;
    policy = Bistpath_dfg.Policy.dedicated_io;
  }

let iir_biquad () =
  let ops =
    [
      op "*1" Op.Mul "a1" "w1" "m1";
      op "*2" Op.Mul "a2" "w2" "m2";
      op "-1" Op.Sub "x" "m1" "d1";
      op "-2" Op.Sub "d1" "m2" "w";
      op "*3" Op.Mul "b0" "w" "m3";
      op "*4" Op.Mul "b1" "w1" "m4";
      op "*5" Op.Mul "b2" "w2" "m5";
      op "+1" Op.Add "m3" "m4" "s1";
      op "+2" Op.Add "s1" "m5" "y";
    ]
  in
  let problem =
    {
      Scheduler.name = "iir";
      ops;
      inputs = [ "x"; "w1"; "w2"; "a1"; "a2"; "b0"; "b1"; "b2" ];
      outputs = [ "y"; "w" ];
    }
  in
  let schedule = Scheduler.list_schedule problem ~resources:[ (Op.Mul, 2); (Op.Add, 1); (Op.Sub, 1) ] in
  let dfg = Scheduler.to_dfg problem schedule in
  {
    tag = "iir";
    dfg;
    massign = single_function_assignment dfg;
    policy = Bistpath_dfg.Policy.dedicated_io;
  }

(* Fifth-order elliptic wave filter shape: a ladder of adaptor sections.
   Exactly 26 additions and 8 multiplications, matching the operation mix
   of the classic benchmark; the precise interconnection is our
   reconstruction (the original netlist circulated with 1980s tools). *)
let ewf () =
  let ops = ref [] in
  let push o = ops := o :: !ops in
  let add i a b out = push (op (Printf.sprintf "+%d" i) Op.Add a b out) in
  let mul i a b out = push (op (Printf.sprintf "*%d" i) Op.Mul a b out) in
  (* Five adaptor sections; section i consumes the running signal and one
     state variable, produces a new running signal and state update. *)
  let adders = ref 0 and mults = ref 0 in
  let next_add () = incr adders; !adders in
  let next_mul () = incr mults; !mults in
  let section i signal state coeff =
    let s = Printf.sprintf "sec%d" i in
    let a1 = s ^ "a" and m1 = s ^ "m" and a2 = s ^ "b" and a3 = s ^ "c" in
    add (next_add ()) signal state a1;
    mul (next_mul ()) a1 coeff m1;
    add (next_add ()) m1 state a2;
    add (next_add ()) m1 signal a3;
    (a3, a2)
  in
  let rec ladder i signal acc =
    if i > 5 then (signal, List.rev acc)
    else
      let out, upd = section i signal (Printf.sprintf "sv%d" i) (Printf.sprintf "k%d" i) in
      ladder (i + 1) out (upd :: acc)
  in
  let out, updates = ladder 1 "xin" [] in
  (* Output smoothing chain: mix the state updates pairwise, then three
     final multiplies to scale taps (brings totals to 26 adds, 8 muls). *)
  let rec mix acc = function
    | a :: b :: rest ->
      let o = Printf.sprintf "mix%d" (List.length acc) in
      add (next_add ()) a b o;
      mix (o :: acc) rest
    | [ a ] -> a :: acc
    | [] -> acc
  in
  let mixed = mix [] (out :: updates) in
  let scaled =
    List.mapi
      (fun i v ->
        if i < 3 then begin
          let o = Printf.sprintf "sc%d" i in
          mul (next_mul ()) v (Printf.sprintf "g%d" i) o;
          o
        end
        else v)
      mixed
  in
  let rec reduce = function
    | a :: b :: rest ->
      let o = Printf.sprintf "red%d" !adders in
      add (next_add ()) a b o;
      reduce (o :: rest)
    | [ a ] -> a
    | [] -> assert false
  in
  let yout = reduce scaled in
  (* Pad additions up to 26 with an averaging chain on the output. *)
  let rec pad v =
    if !adders >= 26 then v
    else begin
      let o = Printf.sprintf "pad%d" !adders in
      add (next_add ()) v "xin" o;
      pad o
    end
  in
  let yout = pad yout in
  let inputs =
    "xin"
    :: (List.map (fun i -> Printf.sprintf "sv%d" i) (Listx.range 1 6)
       @ List.map (fun i -> Printf.sprintf "k%d" i) (Listx.range 1 6)
       @ List.map (fun i -> Printf.sprintf "g%d" i) (Listx.range 0 3))
  in
  let problem =
    { Scheduler.name = "ewf"; ops = List.rev !ops; inputs; outputs = [ yout ] }
  in
  let schedule = Scheduler.list_schedule problem ~resources:[ (Op.Add, 2); (Op.Mul, 1) ] in
  let dfg = Scheduler.to_dfg problem schedule in
  {
    tag = "ewf";
    dfg;
    massign = single_function_assignment dfg;
    policy = Bistpath_dfg.Policy.dedicated_io;
  }

(* Four-section lattice: each section cross-couples the forward and
   backward signals through its reflection coefficient. *)
let ar_lattice () =
  let ops = ref [] in
  let push o = ops := o :: !ops in
  let rec sections i f b =
    if i > 4 then (f, b)
    else begin
      let k = Printf.sprintf "k%d" i in
      let mf = Printf.sprintf "mf%d" i and mb = Printf.sprintf "mb%d" i in
      let f' = Printf.sprintf "f%d" i and b' = Printf.sprintf "b%d" i in
      push (op (Printf.sprintf "*f%d" i) Op.Mul k b mf);
      push (op (Printf.sprintf "*b%d" i) Op.Mul k f mb);
      push (op (Printf.sprintf "+f%d" i) Op.Add f mf f');
      push (op (Printf.sprintf "+b%d" i) Op.Add b mb b');
      sections (i + 1) f' b'
    end
  in
  let fout, bout = sections 1 "fin" "bin" in
  let inputs = "fin" :: "bin" :: List.map (fun i -> Printf.sprintf "k%d" i) (Listx.range 1 5) in
  let problem =
    { Scheduler.name = "ar"; ops = List.rev !ops; inputs; outputs = [ fout; bout ] }
  in
  let schedule = Scheduler.list_schedule problem ~resources:[ (Op.Mul, 2); (Op.Add, 2) ] in
  let dfg = Scheduler.to_dfg problem schedule in
  {
    tag = "ar";
    dfg;
    massign = single_function_assignment dfg;
    policy = Bistpath_dfg.Policy.dedicated_io;
  }

(* Four-point DCT butterfly with rotation stages. *)
let dct4 () =
  let ops =
    [
      op "+s0" Op.Add "x0" "x3" "s0";
      op "+s1" Op.Add "x1" "x2" "s1";
      op "-d0" Op.Sub "x0" "x3" "d0";
      op "-d1" Op.Sub "x1" "x2" "d1";
      op "+t0" Op.Add "s0" "s1" "t0";
      op "-t1" Op.Sub "s0" "s1" "t1";
      op "*y0" Op.Mul "c4" "t0" "y0";
      op "*y2" Op.Mul "c4" "t1" "y2";
      op "*m1" Op.Mul "c1" "d0" "m1";
      op "*m2" Op.Mul "c3" "d1" "m2";
      op "*m3" Op.Mul "c3" "d0" "m3";
      op "*m4" Op.Mul "c1" "d1" "m4";
      op "+y1" Op.Add "m1" "m2" "y1";
      op "-y3" Op.Sub "m3" "m4" "y3";
    ]
  in
  let problem =
    {
      Scheduler.name = "dct4";
      ops;
      inputs = [ "x0"; "x1"; "x2"; "x3"; "c1"; "c3"; "c4" ];
      outputs = [ "y0"; "y1"; "y2"; "y3" ];
    }
  in
  let schedule =
    Scheduler.list_schedule problem ~resources:[ (Op.Mul, 2); (Op.Add, 2); (Op.Sub, 2) ]
  in
  let dfg = Scheduler.to_dfg problem schedule in
  {
    tag = "dct4";
    dfg;
    massign = single_function_assignment dfg;
    policy = Bistpath_dfg.Policy.dedicated_io;
  }

let random rng ~ops:n ~inputs:k =
  if n < 1 || k < 2 then invalid_arg "Benchmarks.random: need ops >= 1, inputs >= 2";
  let kinds = Array.of_list Op.all_kinds in
  let inputs = List.map (fun i -> Printf.sprintf "i%d" i) (Listx.range 0 k) in
  let avail = ref inputs in
  let ops = ref [] in
  for j = 0 to n - 1 do
    let arr = Array.of_list !avail in
    let left = arr.(Prng.int rng (Array.length arr)) in
    let right = arr.(Prng.int rng (Array.length arr)) in
    let kind = kinds.(Prng.int rng (Array.length kinds)) in
    let kind = if String.equal left right && not (Op.commutative kind) then Op.Add else kind in
    let out = Printf.sprintf "v%d" j in
    ops := op (Printf.sprintf "o%d" j) kind left right out :: !ops;
    avail := out :: !avail
  done;
  let ops = List.rev !ops in
  let used v =
    List.exists (fun (o : Op.t) -> String.equal o.left v || String.equal o.right v) ops
  in
  let outputs =
    List.filter_map
      (fun (o : Op.t) -> if used o.out then None else Some o.out)
      ops
  in
  let inputs = List.filter used inputs in
  let problem = { Scheduler.name = "random"; ops; inputs; outputs } in
  let budget = 1 + Prng.int rng 3 in
  let resources = List.map (fun kind -> (kind, budget)) (Array.to_list kinds) in
  let schedule = Scheduler.list_schedule problem ~resources in
  let dfg = Scheduler.to_dfg problem schedule in
  let policy =
    if Prng.bool rng then Bistpath_dfg.Policy.default else Bistpath_dfg.Policy.dedicated_io
  in
  (* a random subset of the kinds in use shares one ALU *)
  let alu = List.filter (fun _ -> Prng.bool rng) (List.map fst (Dfg.kind_counts dfg)) in
  { tag = "random"; dfg; massign = first_fit_assignment ~alu dfg; policy }

let by_tag = function
  | "ex1" -> Some (ex1 ())
  | "ex2" -> Some (ex2 ())
  | "Tseng1" -> Some (tseng1 ())
  | "Tseng2" -> Some (tseng2 ())
  | "Paulin" -> Some (paulin ())
  | "fir8" -> Some (fir ~taps:8)
  | "iir" -> Some (iir_biquad ())
  | "ewf" -> Some (ewf ())
  | "ar" -> Some (ar_lattice ())
  | "dct4" -> Some (dct4 ())
  | tag
    when String.length tag > 3
         && String.equal (String.sub tag 0 3) "fir" -> (
    (* parametric family: "fir<N>" for any N >= 2, e.g. fir32 as a
       larger stress instance; fir8 above stays the canonical tag *)
    match int_of_string_opt (String.sub tag 3 (String.length tag - 3)) with
    | Some taps when taps >= 2 -> Some (fir ~taps)
    | _ -> None)
  | _ -> None

let all_tags =
  [ "ex1"; "ex2"; "Tseng1"; "Tseng2"; "Paulin"; "fir8"; "iir"; "ewf"; "ar"; "dct4" ]
