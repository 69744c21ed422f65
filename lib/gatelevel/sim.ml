module A1 = Bigarray.Array1

(* A gate is a reduction ([op]) over its inputs, optionally inverted:
   Nand is an inverted And, Not an inverted Buf. *)
type op = Op_and | Op_or | Op_xor | Op_buf

type compiled = {
  num_nets : int;
  inputs : int array;  (* primary-input nets, port order *)
  op : op array;  (* per gate, topological order *)
  invert : bool array;
  first : int array;  (* gate g reads fanin.(first.(g)) .. fanin.(first.(g+1) - 1) *)
  fanin : int array;
  output : int array;
}

type nets = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

let compile (c : Circuit.t) =
  let valid n = n >= 0 && n < c.num_nets in
  let gates = c.gates in
  let n = Array.length gates in
  Array.iter
    (fun (g : Circuit.gate) ->
      if not (valid g.output && List.for_all valid g.inputs) then
        invalid_arg "Sim.compile: net out of range";
      match (g.kind, g.inputs) with
      | (Not | Buf), [ _ ] | (And | Or | Nand | Nor | Xor | Xnor), _ :: _ :: _ -> ()
      | _ -> invalid_arg "Sim.compile: gate arity")
    gates;
  if not (List.for_all valid (c.inputs @ c.outputs)) then
    invalid_arg "Sim.compile: port net out of range";
  let first = Array.make (n + 1) 0 in
  Array.iteri
    (fun g (gate : Circuit.gate) -> first.(g + 1) <- first.(g) + List.length gate.inputs)
    gates;
  {
    num_nets = c.num_nets;
    inputs = Array.of_list c.inputs;
    op =
      Array.map
        (fun (g : Circuit.gate) ->
          match g.kind with
          | And | Nand -> Op_and
          | Or | Nor -> Op_or
          | Xor | Xnor -> Op_xor
          | Not | Buf -> Op_buf)
        gates;
    invert =
      Array.map
        (fun (g : Circuit.gate) ->
          match g.kind with
          | Nand | Nor | Xnor | Not -> true
          | And | Or | Xor | Buf -> false)
        gates;
    first;
    fanin =
      Array.of_list (List.concat_map (fun (g : Circuit.gate) -> g.inputs) (Array.to_list gates));
    output = Array.map (fun (g : Circuit.gate) -> g.output) gates;
  }

let nets k = A1.init Bigarray.int64 Bigarray.c_layout k.num_nets (fun _ -> 0L)

let live_lanes size = if size >= 64 then -1L else Int64.pred (Int64.shift_left 1L size)

(* [compile] bounds-checked every net, so the loop reads and writes the
   buffer unchecked; each word is computed in place in the gate's output
   slot, so nothing is boxed. Clearing first makes a reused buffer read
   exactly like a fresh one, even for a net no gate drives. *)
let eval_chunk k (buf : nets) ?stuck inputs =
  if Array.length inputs <> Array.length k.inputs then
    invalid_arg "Sim.eval_chunk: input arity mismatch";
  if A1.dim buf <> k.num_nets then invalid_arg "Sim.eval_chunk: buffer size mismatch";
  let forced, word = match stuck with Some (n, w) -> (n, w) | None -> (-1, 0L) in
  A1.fill buf 0L;
  for i = 0 to Array.length inputs - 1 do
    A1.unsafe_set buf k.inputs.(i) inputs.(i)
  done;
  if forced >= 0 then A1.unsafe_set buf forced word;
  let fanin = k.fanin in
  for g = 0 to Array.length k.output - 1 do
    let out = k.output.(g) and lo = k.first.(g) and hi = k.first.(g + 1) - 1 in
    A1.unsafe_set buf out (A1.unsafe_get buf fanin.(lo));
    (match k.op.(g) with
    | Op_and ->
      for j = lo + 1 to hi do
        A1.unsafe_set buf out
          (Int64.logand (A1.unsafe_get buf out) (A1.unsafe_get buf fanin.(j)))
      done
    | Op_or ->
      for j = lo + 1 to hi do
        A1.unsafe_set buf out
          (Int64.logor (A1.unsafe_get buf out) (A1.unsafe_get buf fanin.(j)))
      done
    | Op_xor ->
      for j = lo + 1 to hi do
        A1.unsafe_set buf out
          (Int64.logxor (A1.unsafe_get buf out) (A1.unsafe_get buf fanin.(j)))
      done
    | Op_buf -> ());
    if k.invert.(g) then A1.unsafe_set buf out (Int64.lognot (A1.unsafe_get buf out));
    if out = forced then A1.unsafe_set buf out word
  done

let eval_nets ?stuck c input_words =
  let k = compile c in
  let buf = nets k in
  eval_chunk k buf ?stuck input_words;
  Array.init k.num_nets (A1.get buf)

let eval c input_words =
  let nets = eval_nets c input_words in
  Array.of_list (List.map (fun n -> nets.(n)) c.Circuit.outputs)

let eval_ints c bits =
  let words =
    Array.of_list (List.map (fun bit -> if bit <> 0 then -1L else 0L) bits)
  in
  let outs = eval c words in
  Array.to_list (Array.map (fun w -> if Int64.logand w 1L = 1L then 1 else 0) outs)

let eval_words c ~width operands =
  let bits_of v = List.init width (fun i -> (v lsr i) land 1) in
  let in_bits = List.concat_map bits_of operands in
  if List.length in_bits <> List.length c.Circuit.inputs then
    invalid_arg "Sim.eval_words: operand count does not match circuit inputs";
  let out_bits = eval_ints c in_bits in
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  let rec group = function
    | [] -> []
    | bits ->
      let chunk = Bistpath_util.Listx.take width bits in
      let value =
        snd (List.fold_left (fun (i, acc) b -> (i + 1, acc lor (b lsl i))) (0, 0) chunk)
      in
      value :: group (drop (List.length chunk) bits)
  in
  group out_bits
