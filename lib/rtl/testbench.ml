module Datapath = Bistpath_datapath.Datapath
module Dfg = Bistpath_dfg.Dfg
module Control = Bistpath_datapath.Control
module Eval = Bistpath_dfg.Eval
module Prng = Bistpath_util.Prng
module Listx = Bistpath_util.Listx

let sanitize = Verilog.sanitize

let generate ?(width = 8) ?name (dp : Datapath.t) ~vectors =
  let dut = Verilog.module_name dp in
  let tb =
    match name with
    | Some n -> Verilog.mangle n
    | None -> Verilog.mangle (dp.Datapath.dfg.Dfg.name ^ "_datapath_tb")
  in
  let ins = Dfg.used_inputs dp.Datapath.dfg in
  let outs =
    List.map (fun (v, _) -> (v, Control.latch_step dp.Datapath.dfg v)) dp.Datapath.outputs
  in
  let steps = Dfg.num_csteps dp.Datapath.dfg in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "`timescale 1ns/1ps\n";
  pf "module %s;\n" tb;
  pf "  reg clk = 1'b0;\n  reg rst = 1'b1;\n";
  List.iter (fun v -> pf "  reg [%d:0] pin_%s;\n" (width - 1) (sanitize v)) ins;
  List.iter (fun (v, _) -> pf "  wire [%d:0] pout_%s;\n" (width - 1) (sanitize v)) outs;
  pf "  integer errors = 0;\n\n";
  pf "  %s dut (\n    .clk(clk), .rst(rst),\n" dut;
  List.iter (fun v -> pf "    .pin_%s(pin_%s),\n" (sanitize v) (sanitize v)) ins;
  List.iteri
    (fun i (v, _) ->
      pf "    .pout_%s(pout_%s)%s\n" (sanitize v) (sanitize v)
        (if i = List.length outs - 1 then "" else ","))
    outs;
  pf "  );\n\n";
  pf "  always #5 clk = ~clk;\n\n";
  pf "  initial begin\n";
  List.iteri
    (fun vi inputs ->
      let expected = Eval.run dp.Datapath.dfg ~width ~inputs in
      pf "    // vector %d\n" vi;
      pf "    rst = 1'b1;\n";
      List.iter
        (fun v ->
          pf "    pin_%s = %d'd%d;\n" (sanitize v) width
            (List.assoc v inputs land ((1 lsl width) - 1)))
        ins;
      pf "    @(posedge clk); #1 rst = 1'b0;\n";
      List.iter
        (fun step ->
          pf "    @(posedge clk); #1;\n";
          List.iter
            (fun (v, at) ->
              if at = step then begin
                let e = List.assoc v expected in
                pf "    if (pout_%s !== %d'd%d) begin\n" (sanitize v) width e;
                pf "      errors = errors + 1;\n";
                pf "      $display(\"FAIL vector %d output %s: expected %d got %%0d\", pout_%s);\n"
                  vi v e (sanitize v);
                pf "    end\n"
              end)
            outs)
        (Listx.range 0 (steps + 1));
      pf "\n")
    vectors;
  pf "    if (errors == 0) $display(\"PASS: %d vectors\");\n" (List.length vectors);
  pf "    else $display(\"%%0d ERRORS\", errors);\n";
  pf "    $finish;\n";
  pf "  end\nendmodule\n";
  Buffer.contents buf

let random_vectors rng (dp : Datapath.t) ~width ~count =
  let ins = Dfg.used_inputs dp.Datapath.dfg in
  List.init count (fun _ ->
      List.map (fun v -> (v, Prng.int rng (1 lsl width))) ins)
