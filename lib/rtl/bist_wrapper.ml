module Datapath = Bistpath_datapath.Datapath
module Dfg = Bistpath_dfg.Dfg
module Allocator = Bistpath_bist.Allocator
module Session = Bistpath_bist.Session
module Ipath = Bistpath_ipath.Ipath

let sanitize = Verilog.sanitize

(* SA register of each unit's embedding, deduplicated per session. *)
let session_sa_registers (sol : Allocator.solution) units =
  List.filter_map
    (fun (e : Ipath.embedding) ->
      if List.mem e.mid units then Some e.sa else None)
    sol.Allocator.embeddings
  |> List.sort_uniq compare

type golden = { session : int; rid : string; signature : int }

(* Golden signatures come from the artifact itself: the data path is
   emitted with its session overrides, parsed back, and each session is
   clocked in test mode on the elaborated netlist. *)
let golden_signatures ?(width = 8) ?patterns ?faulty_unit dp (sol : Allocator.solution)
    (sessions : Session.t) =
  let patterns = match patterns with Some p -> p | None -> (1 lsl width) - 1 in
  List.iter
    (fun (e : Ipath.embedding) ->
      if (e.l_via, e.r_via) <> (None, None) && List.exists (List.mem e.mid) sessions.sessions
      then
        invalid_arg
          ("Bist_wrapper.golden_signatures: emitted test overrides cover simple I-paths \
            only, unit " ^ e.mid ^ " uses a transparent via"))
    sol.Allocator.embeddings;
  let elab =
    match Equiv.parse_back (Verilog.emit ~width ~bist:sol ~sessions dp) with
    | Ok elab -> elab
    | Error _ -> invalid_arg "Bist_wrapper.golden_signatures: emitted RTL does not parse"
  in
  let faulty = Option.map (fun (mid, f) -> ("u_" ^ sanitize mid, f)) faulty_unit in
  List.concat
    (List.mapi
       (fun session units ->
         let sigs = Equiv.test_signatures ?faulty elab ~session ~patterns in
         List.map
           (fun rid ->
             { session; rid; signature = List.assoc ("sig_" ^ sanitize rid) sigs })
           (session_sa_registers sol units))
       sessions.Session.sessions)

let detects_fault ?(width = 8) ?patterns dp sol sessions ~mid ~fault =
  let clean = golden_signatures ~width ?patterns dp sol sessions in
  let faulty = golden_signatures ~width ?patterns ~faulty_unit:(mid, fault) dp sol sessions in
  clean <> faulty

let emit ?(width = 8) ?patterns ?(golden = []) dp (sol : Allocator.solution)
    (sessions : Session.t) =
  let patterns = match patterns with Some p -> p | None -> (1 lsl width) - 1 in
  let name = sanitize dp.Datapath.dfg.Dfg.name in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let inputs = Dfg.used_inputs dp.Datapath.dfg in
  let sa_regs = Verilog.signature_registers (Some sol) in
  let nsess = List.length sessions.Session.sessions in
  pf "// Self-test wrapper for %s_datapath.\n" name;
  let dut_module = Verilog.module_name dp in
  let wrapper = Verilog.mangle (dp.Datapath.dfg.Dfg.name ^ "_bist") in
  if golden = [] then begin
    pf "// Golden signature parameters default to 0: obtain the real values by\n";
    pf "// simulating the fault-free design through each session (reset, then\n";
    pf "// PATTERNS clocks of test_mode) and reading the sig_* taps.\n"
  end
  else
    pf "// Golden signatures simulated on the parsed-back datapath netlist.\n";
  pf "module %s #(\n" wrapper;
  pf "  parameter PATTERNS = %d%s\n" patterns (if sa_regs = [] then "" else ",");
  List.iteri
    (fun si units ->
      let sas = session_sa_registers sol units in
      List.iteri
        (fun i rid ->
          let last = si = nsess - 1 && i = List.length sas - 1 in
          let value =
            List.find_map
              (fun (g : golden) ->
                if g.session = si && String.equal g.rid rid then Some g.signature else None)
              golden
            |> Option.value ~default:0
          in
          pf "  parameter [%d:0] GOLDEN_S%d_%s = %d'd%d%s\n" (width - 1) si
            (sanitize rid) width value
            (if last then "" else ","))
        sas)
    sessions.Session.sessions;
  pf ") (\n";
  pf "  input  wire clk,\n  input  wire rst,\n  input  wire start,\n";
  pf "  output reg  done,\n  output reg  pass\n";
  pf ");\n\n";
  (* datapath instance: pins tied off during self-test *)
  let sess_bits = Verilog.session_bits nsess in
  pf "  reg test_mode;\n";
  pf "  reg dp_rst;\n";
  pf "  reg [%d:0] session;\n" (sess_bits - 1);
  List.iter
    (fun v -> pf "  wire [%d:0] pin_%s = {%d{1'b0}};\n" (width - 1) (sanitize v) width)
    inputs;
  List.iter
    (fun (v, _) -> pf "  wire [%d:0] pout_%s;\n" (width - 1) (sanitize v))
    dp.Datapath.outputs;
  List.iter
    (fun rid -> pf "  wire [%d:0] sig_%s;\n" (width - 1) (sanitize rid))
    sa_regs;
  pf "\n  %s dut (\n    .clk(clk), .rst(dp_rst), .test_mode(test_mode), .test_session(session),\n"
    dut_module;
  List.iter (fun v -> pf "    .pin_%s(pin_%s),\n" (sanitize v) (sanitize v)) inputs;
  List.iter
    (fun (v, _) -> pf "    .pout_%s(pout_%s),\n" (sanitize v) (sanitize v))
    dp.Datapath.outputs;
  List.iteri
    (fun i rid ->
      pf "    .sig_%s(sig_%s)%s\n" (sanitize rid) (sanitize rid)
        (if i = List.length sa_regs - 1 then "" else ","))
    sa_regs;
  pf "  );\n\n";
  (* session FSM *)
  pf "  localparam NSESSIONS = %d;\n" nsess;
  pf "  localparam S_IDLE = 2'd0, S_RESET = 2'd1, S_RUN = 2'd2, S_CHECK = 2'd3;\n";
  pf "  reg [1:0] state;\n";
  pf "  reg [31:0] cycle;\n";
  pf "  wire session_ok =\n";
  List.iteri
    (fun si units ->
      let sas = session_sa_registers sol units in
      let conj =
        match sas with
        | [] -> "1'b1"
        | _ ->
          String.concat " && "
            (List.map
               (fun rid ->
                 Printf.sprintf "(sig_%s == GOLDEN_S%d_%s)" (sanitize rid) si
                   (sanitize rid))
               sas)
      in
      pf "    session == %d'd%d ? (%s) :\n" sess_bits si conj)
    sessions.Session.sessions;
  pf "    1'b1;\n\n";
  pf "  always @(posedge clk) begin\n";
  pf "    if (rst) begin\n";
  pf "      state <= S_IDLE; done <= 1'b0; pass <= 1'b1;\n";
  pf "      session <= %d'd0; cycle <= 32'd0; test_mode <= 1'b0; dp_rst <= 1'b1;\n" sess_bits;
  pf "    end else begin\n";
  pf "      case (state)\n";
  pf "        S_IDLE: if (start) begin\n";
  pf "          done <= 1'b0; pass <= 1'b1; session <= %d'd0; state <= S_RESET;\n" sess_bits;
  pf "        end\n";
  pf "        S_RESET: begin\n";
  pf "          dp_rst <= 1'b0; test_mode <= 1'b1; cycle <= 32'd0; state <= S_RUN;\n";
  pf "        end\n";
  pf "        S_RUN: begin\n";
  pf "          if (cycle == PATTERNS - 1) state <= S_CHECK;\n";
  pf "          cycle <= cycle + 32'd1;\n";
  pf "        end\n";
  pf "        S_CHECK: begin\n";
  pf "          if (!session_ok) pass <= 1'b0;\n";
  pf "          test_mode <= 1'b0; dp_rst <= 1'b1;\n";
  pf "          if (session == %d'd%d) begin done <= 1'b1; state <= S_IDLE; end\n"
    sess_bits (nsess - 1);
  pf "          else begin session <= session + %d'd1; state <= S_RESET; end\n" sess_bits;
  pf "        end\n";
  pf "        default: state <= S_IDLE;\n";
  pf "      endcase\n";
  pf "    end\n";
  pf "  end\nendmodule\n";
  Buffer.contents buf
