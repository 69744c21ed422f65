module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign
module Dfg = Bistpath_dfg.Dfg
module Op = Bistpath_dfg.Op
module Resource = Bistpath_bist.Resource
module Allocator = Bistpath_bist.Allocator
module Session = Bistpath_bist.Session
module Ipath = Bistpath_ipath.Ipath
module Control = Bistpath_datapath.Control

(* Hex-escaping keeps the map injective for names that differ only in
   their punctuation (greedy module binders name units "*1", "+1", ...,
   which a collapse-to-underscore map would merge into one wire). *)
let sanitize name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "_%02x" (Char.code c)))
    name;
  Buffer.contents buf

(* Verilog-2001 reserved words a sanitized netlist name could collide
   with when used bare (instance or module names). *)
let keywords =
  [ "always"; "and"; "assign"; "begin"; "buf"; "case"; "casex"; "casez";
    "default"; "defparam"; "disable"; "edge"; "else"; "end"; "endcase";
    "endfunction"; "endgenerate"; "endmodule"; "endtask"; "for"; "forever";
    "function"; "generate"; "genvar"; "if"; "initial"; "inout"; "input";
    "integer"; "localparam"; "module"; "nand"; "negedge"; "nor"; "not";
    "or"; "output"; "parameter"; "posedge"; "real"; "reg"; "repeat";
    "signed"; "task"; "time"; "tri"; "wait"; "while"; "wire"; "xnor"; "xor" ]

(* Escaped-identifier form for names that are not legal bare Verilog
   identifiers (reserved words, leading digit). The trailing space is
   part of the escaped-identifier syntax. *)
let escape s =
  let s = if s = "" then "_" else s in
  let digit_lead = match s.[0] with '0' .. '9' -> true | _ -> false in
  if digit_lead || List.mem s keywords then "\\" ^ s ^ " " else s

let mangle name = escape (sanitize name)

let module_name (dp : Datapath.t) =
  escape (sanitize dp.Datapath.dfg.Bistpath_dfg.Dfg.name ^ "_datapath")

let unit_module = function
  | Op.Add -> "dp_add"
  | Op.Sub -> "dp_sub"
  | Op.Mul -> "dp_mul"
  | Op.Div -> "dp_div"
  | Op.And -> "dp_and"
  | Op.Or -> "dp_or"
  | Op.Xor -> "dp_xor"
  | Op.Less -> "dp_less"

let reg_module = function
  | Resource.Normal -> "dp_register"
  | Resource.Tpg -> "tpg_register"
  | Resource.Sa -> "sa_register"
  | Resource.Bilbo -> "bilbo_register"
  | Resource.Cbilbo -> "cbilbo_register"

(* Distinct non-zero LFSR reset seed per register: identically seeded
   generators would feed correlated (even identical) streams into the
   units under test — a subtractor reading two same-seed TPGs would see
   x - x = 0 forever. *)
let test_seed ~width rid =
  let mask = (1 lsl width) - 1 in
  match Hashtbl.hash rid land mask with 0 -> 1 | s -> s

let style_of bist rid =
  match bist with
  | None -> Resource.Normal
  | Some (sol : Allocator.solution) ->
    Option.value (List.assoc_opt rid sol.Allocator.styles) ~default:Resource.Normal

let simple_embedding bist mid =
  match bist with
  | None -> None
  | Some (sol : Allocator.solution) ->
    List.find_opt
      (fun (e : Ipath.embedding) ->
        String.equal e.Ipath.mid mid && e.Ipath.l_via = None && e.Ipath.r_via = None)
      sol.Allocator.embeddings

let signature_registers bist =
  match bist with
  | None -> []
  | Some (sol : Allocator.solution) ->
    List.filter_map
      (fun (rid, style) ->
        match style with
        | Resource.Sa | Resource.Bilbo | Resource.Cbilbo -> Some rid
        | Resource.Normal | Resource.Tpg -> None)
      sol.Allocator.styles

let session_bits nsess =
  max 1 (int_of_float (ceil (log (float_of_int (nsess + 1)) /. log 2.0)))

let session_of session_list mid =
  let rec go k = function
    | [] -> None
    | units :: rest -> if List.mem mid units then Some k else go (k + 1) rest
  in
  go 0 session_list

let emit ?(width = 8) ?bist ?sessions ?(regw = []) ?(unitw = []) dp =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Per-component narrowed widths (synth rtl --narrow). Ports stay at
     the uniform width; Verilog's implicit zero-extension / truncation
     on assignment does the width adaptation at every boundary, so the
     expression structure is identical to the uniform-width netlist. *)
  let rw rid = match List.assoc_opt rid regw with Some w -> w | None -> width in
  let uw mid = match List.assoc_opt mid unitw with Some w -> w | None -> width in
  let inputs = Dfg.used_inputs dp.Datapath.dfg in
  pf "module %s (\n" (module_name dp);
  pf "  input  wire clk,\n  input  wire rst,\n";
  if bist <> None then pf "  input  wire test_mode,\n";
  (* Session-driven test overrides: with [sessions], the wrapper selects
     the active session and the datapath steers its multiplexers to the
     chosen BIST embeddings (simple I-paths only; via-embeddings keep
     the functional selects). *)
  let session_list =
    match sessions with Some (t : Session.t) -> t.Session.sessions | None -> []
  in
  let nsess = List.length session_list in
  let sess_bits = session_bits nsess in
  if nsess > 0 then pf "  input  wire [%d:0] test_session,\n" (sess_bits - 1);
  let embedding_of = simple_embedding bist in
  let sess_eq k = Printf.sprintf "test_session == %d'd%d" sess_bits k in
  List.iter (fun v -> pf "  input  wire [%d:0] pin_%s,\n" (width - 1) (sanitize v)) inputs;
  let outs = dp.Datapath.outputs in
  let sa_regs = signature_registers bist in
  List.iteri
    (fun i (v, _) ->
      pf "  output wire [%d:0] pout_%s%s\n" (width - 1) (sanitize v)
        (if i = List.length outs - 1 && sa_regs = [] then "" else ","))
    outs;
  List.iteri
    (fun i rid ->
      pf "  output wire [%d:0] sig_%s%s\n" (width - 1) (sanitize rid)
        (if i = List.length sa_regs - 1 then "" else ","))
    sa_regs;
  pf ");\n\n";
  (* Controller: a free-running step counter; per-step selects and
     enables are derived from the synthesized control table so the
     module is self-contained (step 0 loads inputs, steps 1..T run the
     schedule, then the counter saturates). *)
  let control = Control.build dp in
  let steps = Dfg.num_csteps dp.Datapath.dfg in
  let step_bits =
    max 1 (int_of_float (ceil (log (float_of_int (steps + 2)) /. log 2.0)))
  in
  pf "  localparam NUM_STEPS = %d;\n" steps;
  pf "  reg [%d:0] step;\n" (step_bits - 1);
  pf "  always @(posedge clk) begin\n";
  pf "    if (rst) step <= %d'd0;\n" step_bits;
  pf "    else if (step <= %d'd%d) step <= step + %d'd1;\n" step_bits steps step_bits;
  pf "  end\n\n";
  let step_eq i = Printf.sprintf "step == %d'd%d" step_bits i in
  (* Register input muxes and register instances. *)
  List.iter
    (fun (r : Datapath.reg) ->
      let rid = sanitize r.rid in
      let writers = List.assoc r.rid dp.Datapath.reg_writers in
      let wire_of = function
        | Datapath.From_unit mid -> Printf.sprintf "out_%s" (sanitize mid)
        | Datapath.From_port v -> Printf.sprintf "pin_%s" (sanitize v)
      in
      let write_schedule = Control.write_schedule control r.rid in
      pf "  wire [%d:0] d_%s;\n" (rw r.rid - 1) rid;
      (match writers with
      | [] -> pf "  assign d_%s = {%d{1'b0}};\n" rid (rw r.rid)
      | [ w ] -> pf "  assign d_%s = %s;\n" rid (wire_of w)
      | ws ->
        let n = List.length ws in
        let sel_bits = max 1 (int_of_float (ceil (log (float_of_int n) /. log 2.0))) in
        pf "  wire [%d:0] sel_%s;\n" (sel_bits - 1) rid;
        pf "  assign sel_%s =\n" rid;
        (* test mode: compact the output of the unit whose SA this
           register is in the active session *)
        if nsess > 0 then
          List.iteri
            (fun k units ->
              let sa_source =
                List.find_map
                  (fun mid ->
                    match embedding_of mid with
                    | Some e when String.equal e.Ipath.sa r.rid ->
                      Bistpath_util.Listx.index_of
                        (fun w -> w = Datapath.From_unit mid)
                        ws
                    | Some _ | None -> None)
                  units
              in
              match sa_source with
              | Some idx ->
                pf "    (test_mode && %s) ? %d'd%d :\n" (sess_eq k) sel_bits idx
              | None -> ())
            session_list;
        List.iter
          (fun (st, src) -> pf "    %s ? %d'd%d :\n" (step_eq st) sel_bits src)
          write_schedule;
        pf "    %d'd0;\n" sel_bits;
        pf "  assign d_%s =\n" rid;
        List.iteri
          (fun i w ->
            if i = n - 1 then pf "    %s;\n" (wire_of w)
            else pf "    sel_%s == %d'd%d ? %s :\n" rid sel_bits i (wire_of w))
          ws);
      let style = style_of bist r.rid in
      let inst = escape rid in
      pf "  wire en_%s;\n" rid;
      (match write_schedule with
      | [] -> pf "  assign en_%s = 1'b0;\n" rid
      | sched ->
        pf "  assign en_%s = %s;\n" rid
          (String.concat " || " (List.map (fun (st, _) -> "(" ^ step_eq st ^ ")") sched)));
      pf "  wire [%d:0] q_%s;\n" (rw r.rid - 1) rid;
      (match style with
      | Resource.Normal ->
        pf "  %s #(.WIDTH(%d)) %s (.clk(clk), .rst(rst), .en(en_%s), .d(d_%s), .q(q_%s));\n"
          (reg_module style) (rw r.rid) inst rid rid rid
      | Resource.Tpg ->
        pf
          "  %s #(.WIDTH(%d), .SEED(%d'd%d)) %s (.clk(clk), .rst(rst), .en(en_%s), .test_mode(test_mode), .d(d_%s), .q(q_%s));\n"
          (reg_module style) width width (test_seed ~width r.rid) inst rid rid rid
      | Resource.Sa ->
        pf
          "  %s #(.WIDTH(%d)) %s (.clk(clk), .rst(rst), .en(en_%s), .test_mode(test_mode), .d(d_%s), .q(q_%s), .sig_out(sig_%s));\n"
          (reg_module style) width inst rid rid rid rid
      | Resource.Cbilbo ->
        pf
          "  %s #(.WIDTH(%d), .SEED(%d'd%d)) %s (.clk(clk), .rst(rst), .en(en_%s), .test_mode(test_mode), .d(d_%s), .q(q_%s), .sig_out(sig_%s));\n"
          (reg_module style) width width (test_seed ~width r.rid) inst rid rid rid rid
      | Resource.Bilbo ->
        (* compact whenever the active session tests a unit whose SA
           this register is; otherwise generate *)
        let compact_terms =
          List.concat
            (List.mapi
               (fun k units ->
                 List.filter_map
                   (fun mid ->
                     match embedding_of mid with
                     | Some e when String.equal e.Ipath.sa r.rid -> Some (sess_eq k)
                     | Some _ | None -> None)
                   units)
               session_list)
        in
        (match compact_terms with
        | [] -> pf "  wire compact_%s = 1'b0;\n" rid
        | ts -> pf "  wire compact_%s = %s;\n" rid (String.concat " || " (List.map (fun t -> "(" ^ t ^ ")") ts)));
        pf
          "  %s #(.WIDTH(%d), .SEED(%d'd%d)) %s (.clk(clk), .rst(rst), .en(en_%s), .test_mode(test_mode), .compact(compact_%s), .d(d_%s), .q(q_%s), .sig_out(sig_%s));\n"
          (reg_module style) width width (test_seed ~width r.rid) inst rid rid rid rid rid);
      pf "\n")
    dp.Datapath.regs;
  (* Functional units with port muxes. *)
  List.iter
    (fun (u : Massign.hw) ->
      let l, rr = Datapath.unit_port_sources dp u.mid in
      if l <> [] || rr <> [] then begin
        let mid = sanitize u.mid in
        let activity = Control.activity control u.mid in
        let port side select_of srcs =
          pf "  wire [%d:0] %s_%s;\n" (uw u.mid - 1) side mid;
          match srcs with
          | [] -> pf "  assign %s_%s = {%d{1'b0}};\n" side mid (uw u.mid)
          | [ s ] -> pf "  assign %s_%s = q_%s;\n" side mid (sanitize s)
          | ss ->
            let n = List.length ss in
            let sel_bits = max 1 (int_of_float (ceil (log (float_of_int n) /. log 2.0))) in
            pf "  wire [%d:0] %ssel_%s;\n" (sel_bits - 1) side mid;
            pf "  assign %ssel_%s =\n" side mid;
            (if nsess > 0 then
               match (session_of session_list u.mid, embedding_of u.mid) with
               | Some k, Some e ->
                 let tpg = if String.equal side "l" then e.Ipath.l_tpg else e.Ipath.r_tpg in
                 (match Bistpath_util.Listx.index_of (String.equal tpg) ss with
                 | Some idx ->
                   pf "    (test_mode && %s) ? %d'd%d :\n" (sess_eq k) sel_bits idx
                 | None -> ())
               | _ -> ());
            List.iter
              (fun (st, o) -> pf "    %s ? %d'd%d :\n" (step_eq st) sel_bits (select_of o))
              activity;
            pf "    %d'd0;\n" sel_bits;
            pf "  assign %s_%s =\n" side mid;
            List.iteri
              (fun i s ->
                if i = n - 1 then pf "    q_%s;\n" (sanitize s)
                else pf "    %ssel_%s == %d'd%d ? q_%s :\n" side mid sel_bits i (sanitize s))
              ss
        in
        port "l" (fun (o : Control.unit_op) -> o.Control.l_select) l;
        port "r" (fun (o : Control.unit_op) -> o.Control.r_select) rr;
        pf "  wire [%d:0] out_%s;\n" (uw u.mid - 1) mid;
        (match u.kinds with
        | [ k ] ->
          pf "  %s #(.WIDTH(%d)) u_%s (.a(l_%s), .b(r_%s), .y(out_%s));\n"
            (unit_module k) (uw u.mid) mid mid mid mid
        | kinds ->
          (* multifunction unit: one-hot select, specialized inline *)
          let w = uw u.mid in
          let expr kind =
            match kind with
            | Op.Add -> Printf.sprintf "l_%s + r_%s" mid mid
            | Op.Sub -> Printf.sprintf "l_%s - r_%s" mid mid
            | Op.Mul -> Printf.sprintf "l_%s * r_%s" mid mid
            | Op.Div ->
              Printf.sprintf "(r_%s == 0 ? {%d{1'b1}} : l_%s / r_%s)" mid w mid mid
            | Op.And -> Printf.sprintf "l_%s & r_%s" mid mid
            | Op.Or -> Printf.sprintf "l_%s | r_%s" mid mid
            | Op.Xor -> Printf.sprintf "l_%s ^ r_%s" mid mid
            | Op.Less ->
              (* width 1 would make the pad a zero-width literal, which
                 is illegal Verilog: the bare comparison already has the
                 right width *)
              if w = 1 then Printf.sprintf "l_%s < r_%s" mid mid
              else Printf.sprintf "{%d'd0, l_%s < r_%s}" (w - 1) mid mid
          in
          let nf = List.length kinds in
          pf "  wire [%d:0] fsel_%s;\n" (nf - 1) mid;
          pf "  assign fsel_%s =\n" mid;
          List.iter
            (fun (st, (o : Control.unit_op)) ->
              pf "    %s ? %d'd%d :\n" (step_eq st) nf (1 lsl o.Control.f_select))
            activity;
          pf "    %d'd0;\n" nf;
          pf "  assign out_%s =\n" mid;
          List.iteri
            (fun i kind ->
              if i = List.length kinds - 1 then pf "    %s;\n" (expr kind)
              else pf "    fsel_%s[%d] ? (%s) :\n" mid i (expr kind))
            kinds);
        pf "\n"
      end)
    dp.Datapath.massign.Massign.units;
  List.iter
    (fun (v, rid) -> pf "  assign pout_%s = q_%s;\n" (sanitize v) (sanitize rid))
    dp.Datapath.outputs;
  pf "\nendmodule\n";
  Buffer.contents buf

let primitives ~width =
  ignore width;
  String.concat "\n"
    [
      "module dp_register #(parameter WIDTH = 8) (";
      "  input wire clk, input wire rst, input wire en,";
      "  input wire [WIDTH-1:0] d, output reg [WIDTH-1:0] q);";
      "  always @(posedge clk) begin";
      "    if (rst) q <= {WIDTH{1'b0}};";
      "    else if (en) q <= d;";
      "  end";
      "endmodule";
      "";
      "module tpg_register #(parameter WIDTH = 8, parameter [WIDTH-1:0] SEED = 1) (";
      "  input wire clk, input wire rst, input wire en, input wire test_mode,";
      "  input wire [WIDTH-1:0] d, output reg [WIDTH-1:0] q);";
      "  wire fb = q[WIDTH-1] ^ (^(q & {{(WIDTH-4){1'b0}}, 4'b1011}));";
      "  always @(posedge clk) begin";
      "    if (rst) q <= SEED;";
      "    else if (test_mode) q <= {q[WIDTH-2:0], fb};";
      "    else if (en) q <= d;";
      "  end";
      "endmodule";
      "";
      "module sa_register #(parameter WIDTH = 8) (";
      "  input wire clk, input wire rst, input wire en, input wire test_mode,";
      "  input wire [WIDTH-1:0] d, output reg [WIDTH-1:0] q,";
      "  output wire [WIDTH-1:0] sig_out);";
      "  wire fb = q[WIDTH-1] ^ (^(q & {{(WIDTH-4){1'b0}}, 4'b1011}));";
      "  assign sig_out = q;";
      "  always @(posedge clk) begin";
      "    if (rst) q <= {WIDTH{1'b0}};";
      "    else if (test_mode) q <= {q[WIDTH-2:0], fb} ^ d;";
      "    else if (en) q <= d;";
      "  end";
      "endmodule";
      "";
      "module bilbo_register #(parameter WIDTH = 8, parameter [WIDTH-1:0] SEED = 1) (";
      "  input wire clk, input wire rst, input wire en, input wire test_mode,";
      "  input wire compact,  // 1 = signature analysis, 0 = pattern generation";
      "  input wire [WIDTH-1:0] d, output reg [WIDTH-1:0] q,";
      "  output wire [WIDTH-1:0] sig_out);";
      "  wire fb = q[WIDTH-1] ^ (^(q & {{(WIDTH-4){1'b0}}, 4'b1011}));";
      "  assign sig_out = q;";
      "  always @(posedge clk) begin";
      "    if (rst) q <= SEED;";
      "    else if (test_mode) q <= compact ? ({q[WIDTH-2:0], fb} ^ d) : {q[WIDTH-2:0], fb};";
      "    else if (en) q <= d;";
      "  end";
      "endmodule";
      "";
      "module cbilbo_register #(parameter WIDTH = 8, parameter [WIDTH-1:0] SEED = 1) (";
      "  input wire clk, input wire rst, input wire en, input wire test_mode,";
      "  input wire [WIDTH-1:0] d, output reg [WIDTH-1:0] q,";
      "  output wire [WIDTH-1:0] sig_out);";
      "  // two ranks: generator rank feeds the datapath, compactor rank";
      "  // absorbs responses concurrently (roughly 2x register area)";
      "  reg [WIDTH-1:0] sig;";
      "  wire fb  = q[WIDTH-1] ^ (^(q   & {{(WIDTH-4){1'b0}}, 4'b1011}));";
      "  wire fb2 = sig[WIDTH-1] ^ (^(sig & {{(WIDTH-4){1'b0}}, 4'b1011}));";
      "  assign sig_out = sig;";
      "  always @(posedge clk) begin";
      "    if (rst) begin q <= SEED; sig <= {WIDTH{1'b0}}; end";
      "    else if (test_mode) begin";
      "      q   <= {q[WIDTH-2:0], fb};";
      "      sig <= {sig[WIDTH-2:0], fb2} ^ d;";
      "    end else if (en) q <= d;";
      "  end";
      "endmodule";
      "";
      "module dp_add #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = a + b;";
      "endmodule";
      "module dp_sub #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = a - b;";
      "endmodule";
      "module dp_mul #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = a * b;";
      "endmodule";
      "module dp_div #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = (b == 0) ? {WIDTH{1'b1}} : a / b;";
      "endmodule";
      "module dp_and #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = a & b;";
      "endmodule";
      "module dp_or #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = a | b;";
      "endmodule";
      "module dp_xor #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = a ^ b;";
      "endmodule";
      "module dp_less #(parameter WIDTH = 8) (input wire [WIDTH-1:0] a, b, output wire [WIDTH-1:0] y);";
      "  assign y = {{(WIDTH-1){1'b0}}, a < b};";
      "endmodule";
      "";
    ]

let source ~width ?bist ?sessions ?regw ?unitw dp =
  primitives ~width ^ "\n" ^ emit ~width ?bist ?sessions ?regw ?unitw dp ^ "\n"
