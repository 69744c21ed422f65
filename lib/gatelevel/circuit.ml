type kind = And | Or | Nand | Nor | Xor | Xnor | Not | Buf

type gate = { kind : kind; inputs : int list; output : int }

type t = {
  name : string;
  num_nets : int;
  inputs : int list;
  outputs : int list;
  gates : gate array;
}

let num_gates t = Array.length t.gates

module Builder = struct
  type b = {
    name : string;
    mutable next : int;
    mutable ins : int list;  (* reversed *)
    mutable outs : int list;  (* reversed *)
    mutable gates : gate list;  (* reversed *)
    mutable zero : int option;
    mutable one : int option;
  }

  let create name = { name; next = 0; ins = []; outs = []; gates = []; zero = None; one = None }

  let fresh b =
    let n = b.next in
    b.next <- n + 1;
    n

  let input b =
    let n = fresh b in
    b.ins <- n :: b.ins;
    n

  let inputs b k = List.init k (fun _ -> input b)

  let exists b n = n >= 0 && n < b.next

  let gate b kind ins =
    List.iter
      (fun n ->
        if not (exists b n) then invalid_arg "Circuit.Builder.gate: undefined input net")
      ins;
    (match (kind, List.length ins) with
    | (Not | Buf), 1 -> ()
    | (Not | Buf), _ -> invalid_arg "Circuit.Builder.gate: Not/Buf arity"
    | _, k when k >= 2 -> ()
    | _ -> invalid_arg "Circuit.Builder.gate: arity");
    let out = fresh b in
    b.gates <- { kind; inputs = ins; output = out } :: b.gates;
    out

  let const0 b =
    match b.zero with
    | Some n -> n
    | None ->
      let base =
        match List.rev b.ins with
        | n :: _ -> n
        | [] -> input b
      in
      let n = gate b Xor [ base; base ] in
      b.zero <- Some n;
      n

  let const1 b =
    match b.one with
    | Some n -> n
    | None ->
      let n = gate b Not [ const0 b ] in
      b.one <- Some n;
      n

  let output b n =
    if not (exists b n) then invalid_arg "Circuit.Builder.output: undefined net";
    b.outs <- n :: b.outs

  let finish b =
    if b.outs = [] then invalid_arg "Circuit.Builder.finish: no outputs";
    {
      name = b.name;
      num_nets = b.next;
      inputs = List.rev b.ins;
      outputs = List.rev b.outs;
      gates = Array.of_list (List.rev b.gates);
    }
end
