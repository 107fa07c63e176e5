(* A complete industry-shaped flow on a hierarchical design:

     structural Verilog (full-adder modules, ripple-carry top)
       -> flatten                        (Verilog_lite)
       -> annotate parasitics+couplings  (Spef_lite)
       -> timing, noise, top-k           (the analyses)

   The carry chain is the critical path, and the coupling between
   adjacent carry wires is exactly where crosstalk hurts a ripple
   adder — the top-k set finds it.

     dune exec examples/ripple_adder.exe        (defaults to 4 bits) *)

module N = Tka_circuit.Netlist
module V = Tka_circuit.Verilog_lite
module Spef = Tka_circuit.Spef_lite
module Topo = Tka_circuit.Topo
module Lib = Tka_cell.Default_lib
module Iterate = Tka_noise.Iterate
module Addition = Tka_topk.Addition
module Report = Tka_topk.Report

let full_adder_module =
  {|
module full_adder (a, b, cin, s, cout);
  input a, b, cin;
  output s, cout;
  wire axb, g1, g2;
  XOR2_X1 x1 (.A(a), .B(b), .Y(axb));
  XOR2_X1 x2 (.A(axb), .B(cin), .Y(s));
  AND2_X1 a1 (.A(axb), .B(cin), .Y(g1));
  AND2_X1 a2 (.A(a), .B(b), .Y(g2));
  OR2_X1  o1 (.A(g1), .B(g2), .Y(cout));
endmodule
|}

let ripple_top bits =
  let buf = Buffer.create 1024 in
  let ports =
    List.concat
      [
        List.init bits (fun i -> Printf.sprintf "a%d" i);
        List.init bits (fun i -> Printf.sprintf "b%d" i);
        [ "cin" ];
        List.init bits (fun i -> Printf.sprintf "s%d" i);
        [ "cout" ];
      ]
  in
  Buffer.add_string buf
    (Printf.sprintf "module ripple (%s);\n" (String.concat ", " ports));
  Buffer.add_string buf
    (Printf.sprintf "  input %s, cin;\n"
       (String.concat ", "
          (List.init bits (fun i -> Printf.sprintf "a%d" i)
          @ List.init bits (fun i -> Printf.sprintf "b%d" i))));
  Buffer.add_string buf
    (Printf.sprintf "  output %s, cout;\n"
       (String.concat ", " (List.init bits (fun i -> Printf.sprintf "s%d" i))));
  if bits > 1 then
    Buffer.add_string buf
      (Printf.sprintf "  wire %s;\n"
         (String.concat ", " (List.init (bits - 1) (fun i -> Printf.sprintf "c%d" i))));
  for i = 0 to bits - 1 do
    let cin = if i = 0 then "cin" else Printf.sprintf "c%d" (i - 1) in
    let cout = if i = bits - 1 then "cout" else Printf.sprintf "c%d" i in
    Buffer.add_string buf
      (Printf.sprintf
         "  full_adder fa%d (.a(a%d), .b(b%d), .cin(%s), .s(s%d), .cout(%s));\n"
         i i i cin i cout)
  done;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let () =
  let bits = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4 in
  let verilog = full_adder_module ^ ripple_top bits in
  let flat = V.parse ~lookup:Lib.find verilog in
  Printf.printf "%d-bit ripple adder: flattened to %d gates, %d nets\n" bits
    (N.num_gates flat) (N.num_nets flat);

  (* couplings between adjacent carry wires and sum outputs, as a
     router packing the carry chain would create; the stage-i carry
     output is c<i> internally and "cout" on the last stage *)
  let carry_out i = if i = bits - 1 then "cout" else Printf.sprintf "c%d" i in
  let couplings =
    List.concat
      [
        List.init (bits - 1) (fun i -> (carry_out i, carry_out (i + 1), 0.0045));
        List.init (bits - 1) (fun i ->
            (Printf.sprintf "s%d" i, Printf.sprintf "s%d" (i + 1), 0.0030));
      ]
  in
  let annotated =
    Spef.apply { Spef.design = None; ground = []; couplings } flat
  in
  let topo = Topo.create annotated in
  let r = Iterate.run topo in
  Printf.printf "carry-chain delay: %.4f ns noiseless, %.4f ns with crosstalk\n\n"
    (Iterate.noiseless_delay r) (Iterate.circuit_delay r);

  let add = Addition.compute ~k:3 topo in
  print_string (Report.addition annotated add ~ks:[ 1; 2; 3 ]);
  print_newline ();
  print_string
    (Tka_sta.Report_timing.worst
       ~extra_delay:(Iterate.net_noise r)
       r.Iterate.analysis)
