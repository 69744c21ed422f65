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
  po : int array;  (* primary-output nets, port order *)
  first_reader : int array;  (* per net: the first gate reading it, or the gate count *)
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
  (* The order the fault cones rely on: a net has at most one driver,
     a primary input none, and a gate reads only nets driven before it. *)
  let driver = Array.make c.num_nets (-1) in
  List.iter (fun n -> driver.(n) <- -2) c.inputs;
  Array.iteri
    (fun i (g : Circuit.gate) ->
      if driver.(g.output) <> -1 then invalid_arg "Sim.compile: net driven twice";
      driver.(g.output) <- i)
    gates;
  Array.iteri
    (fun i (g : Circuit.gate) ->
      if List.exists (fun n -> driver.(n) >= i) g.inputs then
        invalid_arg "Sim.compile: gate reads a net driven after it")
    gates;
  let first_reader = Array.make c.num_nets n in
  for g = n - 1 downto 0 do
    List.iter (fun i -> first_reader.(i) <- g) gates.(g).inputs
  done;
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
    po = Array.of_list c.outputs;
    first_reader;
  }

let nets k = A1.init Bigarray.int64 Bigarray.c_layout k.num_nets (fun _ -> 0L)

let live_lanes size = if size >= 64 then -1L else Int64.pred (Int64.shift_left 1L size)

(* Gate [g] over several chunks of one buffer: net n of chunk c is at
   [buf.{n * stride + c}], and only the [count] chunks listed in [live]
   are evaluated. A gate's reduction over its first two inputs (one for
   Buf and Not) is one fused pass, a wider gate folds its other inputs
   in after. [compile] bounds-checked every net, so the reads and writes
   are unchecked; the words stay unboxed. *)
let eval_gate k (buf : nets) ~stride (live : int array) count g =
  let fanin = k.fanin and op = k.op.(g) in
  let out = k.output.(g) * stride and lo = k.first.(g) and hi = k.first.(g + 1) - 1 in
  let a = fanin.(lo) * stride and b = fanin.(if hi > lo then lo + 1 else lo) * stride in
  let wide = hi > lo + 1 in
  let flip = if k.invert.(g) && not wide then -1L else 0L in
  (match op with
  | Op_and ->
    for i = 0 to count - 1 do
      let c = Array.unsafe_get live i in
      A1.unsafe_set buf (out + c)
        (Int64.logxor flip
           (Int64.logand (A1.unsafe_get buf (a + c)) (A1.unsafe_get buf (b + c))))
    done
  | Op_or ->
    for i = 0 to count - 1 do
      let c = Array.unsafe_get live i in
      A1.unsafe_set buf (out + c)
        (Int64.logxor flip
           (Int64.logor (A1.unsafe_get buf (a + c)) (A1.unsafe_get buf (b + c))))
    done
  | Op_xor ->
    for i = 0 to count - 1 do
      let c = Array.unsafe_get live i in
      A1.unsafe_set buf (out + c)
        (Int64.logxor flip
           (Int64.logxor (A1.unsafe_get buf (a + c)) (A1.unsafe_get buf (b + c))))
    done
  | Op_buf ->
    for i = 0 to count - 1 do
      let c = Array.unsafe_get live i in
      A1.unsafe_set buf (out + c) (Int64.logxor flip (A1.unsafe_get buf (a + c)))
    done);
  if wide then begin
    for j = lo + 2 to hi do
      let b = fanin.(j) * stride in
      for i = 0 to count - 1 do
        let c = Array.unsafe_get live i in
        let x = A1.unsafe_get buf (out + c) and y = A1.unsafe_get buf (b + c) in
        A1.unsafe_set buf (out + c)
          (match op with
          | Op_and -> Int64.logand x y
          | Op_or -> Int64.logor x y
          | Op_xor -> Int64.logxor x y
          | Op_buf -> x)
      done
    done;
    if k.invert.(g) then
      for i = 0 to count - 1 do
        let c = Array.unsafe_get live i in
        A1.unsafe_set buf (out + c) (Int64.lognot (A1.unsafe_get buf (out + c)))
      done
  end

(* Every gate in order over the chunks of [buf], whose primary inputs
   are set. Net [forced] (none if -1) is re-forced to [word] after its
   driver, if it has one. *)
let eval_all k buf ~stride ~forced word =
  let live = Array.init stride Fun.id in
  for g = 0 to Array.length k.output - 1 do
    eval_gate k buf ~stride live stride g;
    if k.output.(g) = forced then
      for c = 0 to stride - 1 do
        A1.unsafe_set buf ((forced * stride) + c) word
      done
  done

(* Clearing first makes a reused buffer read exactly like a fresh one,
   even for a net no gate drives. *)
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
  eval_all k buf ~stride:1 ~forced word

type reference = {
  k : compiled;
  chunks : int;
  good : nets;  (* net n of chunk c at n * chunks + c, fault-free *)
  work : nets;  (* the same words; a fault's cone is overwritten, then restored *)
  diff : nets;  (* per output port: faulty xor fault-free word *)
  live : int array;  (* the chunks the current fault can change *)
  reached : int array;  (* per net: the stamp of the last fault that changed its words *)
  mutable stamp : int;
  cone : int array;  (* the gates whose outputs the current fault changed, [cone_len] *)
  mutable cone_len : int;
  mutable gate_evals : int;
}

let reference k chunks =
  let stride = Array.length chunks in
  let good = A1.create Bigarray.int64 Bigarray.c_layout (max 1 (k.num_nets * stride)) in
  A1.fill good 0L;
  Array.iteri
    (fun c inputs ->
      if Array.length inputs <> Array.length k.inputs then
        invalid_arg "Sim.reference: input arity mismatch";
      Array.iteri (fun i w -> A1.set good ((k.inputs.(i) * stride) + c) w) inputs)
    chunks;
  eval_all k good ~stride ~forced:(-1) 0L;
  let work = A1.create Bigarray.int64 Bigarray.c_layout (A1.dim good) in
  A1.blit good work;
  {
    k;
    chunks = stride;
    good;
    work;
    diff = A1.init Bigarray.int64 Bigarray.c_layout (max 1 (Array.length k.po)) (fun _ -> 0L);
    live = Array.make stride 0;
    reached = Array.make k.num_nets 0;
    stamp = 0;
    cone = Array.make (Array.length k.output) 0;
    cone_len = 0;
    gate_evals = 0;
  }

let good_word r c net = A1.get r.good ((net * r.chunks) + c)

let gate_evals r = r.gate_evals

let detects (diff : nets) live =
  let rec from o =
    o < A1.dim diff
    && ((not (Int64.equal (Int64.logand (A1.unsafe_get diff o) live) 0L)) || from (o + 1))
  in
  from 0

(* Event-driven over the fanout cone: in gate order from the net's first
   reader, a gate is evaluated, across every chunk the fault can change,
   only when one of its inputs differs from its fault-free word in one of
   those chunks; its output differs (is reached) only if the new words
   do. [compile] checked that a gate reads only nets driven before it, so
   one pass in gate order sees every change before its readers. Every
   net outside [cone] keeps its fault-free word in [work], so afterwards
   only the forced net and [cone]'s outputs are copied back from [good].
   A chunk whose net already carries the stuck word is fault-free
   throughout. *)
let faulty_chunks r (net, word) f =
  let k = r.k and stride = r.chunks and live = r.live in
  if net < 0 || net >= k.num_nets then invalid_arg "Sim.faulty_chunks: net out of range";
  let count = ref 0 in
  for c = 0 to stride - 1 do
    let at = (net * stride) + c in
    if not (Int64.equal (A1.unsafe_get r.good at) word) then begin
      A1.unsafe_set r.work at word;
      live.(!count) <- c;
      incr count
    end
  done;
  let count = !count in
  r.stamp <- r.stamp + 1;
  let stamp = r.stamp in
  r.reached.(net) <- stamp;
  r.cone_len <- 0;
  if count > 0 then
    for g = k.first_reader.(net) to Array.length k.output - 1 do
      let j = ref k.first.(g) and hi = k.first.(g + 1) in
      while !j < hi && r.reached.(k.fanin.(!j)) <> stamp do
        incr j
      done;
      if !j < hi then begin
        eval_gate k r.work ~stride live count g;
        r.gate_evals <- r.gate_evals + count;
        let out = k.output.(g) * stride in
        let i = ref 0 in
        while
          !i < count
          &&
          let at = out + Array.unsafe_get live !i in
          Int64.equal (A1.unsafe_get r.work at) (A1.unsafe_get r.good at)
        do
          incr i
        done;
        if !i < count then begin
          r.reached.(k.output.(g)) <- stamp;
          r.cone.(r.cone_len) <- g;
          r.cone_len <- r.cone_len + 1
        end
      end
    done;
  let stop = ref false and i = ref 0 in
  while (not !stop) && !i < count do
    let c = live.(!i) in
    for o = 0 to Array.length k.po - 1 do
      let at = (k.po.(o) * stride) + c in
      A1.unsafe_set r.diff o (Int64.logxor (A1.unsafe_get r.work at) (A1.unsafe_get r.good at))
    done;
    stop := f c r.diff;
    incr i
  done;
  for j = -1 to r.cone_len - 1 do
    let row = (if j < 0 then net else k.output.(r.cone.(j))) * stride in
    for i = 0 to count - 1 do
      let at = row + Array.unsafe_get live i in
      A1.unsafe_set r.work at (A1.unsafe_get r.good at)
    done
  done;
  !stop

let eval_nets ?stuck c input_words =
  let k = compile c in
  let buf = nets k in
  eval_chunk k buf ?stuck input_words;
  Array.init k.num_nets (A1.get buf)
