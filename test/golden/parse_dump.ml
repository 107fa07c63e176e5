(* Dump how the five text-format parsers react to a fixed fuzz corpus,
   for the parse_errors golden: one line per input, either
   [err <line> <message>] or [ok <printed form of the parsed value>].

   For each format (netlist, verilog, spef, sdf, liberty, in that
   order) it draws 200 inputs from [Fuzz.generate] and
   [Fuzz.mutate] on one seeded stream; every tenth input is left
   unmutated so the corpus also exercises the success path. A short
   hand-written list then covers lexer corners the mutations rarely
   reach (comments, strings, number shapes, line counting inside
   trivia). Newlines inside a printed form or message are written as
   [\n]. *)

module Rng = Tka_util.Rng
module Fuzz = Tka_verify.Fuzz
module Nf = Tka_circuit.Netlist_format
module V = Tka_circuit.Verilog_lite
module Spef = Tka_circuit.Spef_lite
module Sdf = Tka_circuit.Sdf_lite
module Liberty = Tka_cell.Liberty_lite
module Cell = Tka_cell.Cell

let one_line s = String.concat "\\n" (String.split_on_char '\n' s)

let print_spef (a : Spef.annotation) =
  Printf.sprintf "design=%s ground=[%s] couplings=[%s]"
    (Option.value ~default:"-" a.design)
    (String.concat " "
       (List.map (fun (n, c, r) -> Printf.sprintf "%s:%h:%h" n c r) a.ground))
    (String.concat " "
       (List.map (fun (x, y, c) -> Printf.sprintf "%s/%s:%h" x y c) a.couplings))

let print_sdf (a : Sdf.annotation) =
  Printf.sprintf "design=%s arcs=[%s]"
    (Option.value ~default:"-" a.sdf_design)
    (String.concat " "
       (List.map
          (fun (i, f, t, d) -> Printf.sprintf "%s:%s>%s:%h" i f t d)
          a.sdf_arcs))

let print_liberty (l : Liberty.t) =
  let cell (c : Cell.t) =
    Printf.sprintf "%s(%s;%s;%s;%h,%h,%h,%h)" c.name
      (String.concat ","
         (List.map
            (fun (p : Cell.pin) -> Printf.sprintf "%s:%h" p.pin_name p.capacitance)
            c.inputs))
      c.output.pin_name c.logic c.intrinsic_delay c.drive_resistance
      c.intrinsic_slew c.slew_resistance
  in
  Printf.sprintf "library=%s cells=[%s]" l.library_name
    (String.concat " " (List.map cell l.cells))

let lookup = Tka_cell.Default_lib.find

let run (fmt : Fuzz.format) src =
  try
    "ok "
    ^
    match fmt with
    | Netlist_fmt -> Nf.print (Nf.parse ~lookup src)
    | Verilog -> Nf.print (V.parse ~lookup src)
    | Spef -> print_spef (Spef.parse src)
    | Sdf -> print_sdf (Sdf.parse src)
    | Liberty -> print_liberty (Liberty.parse src)
  with Tka_util.Lex.Parse_error { line; message; _ } ->
    Printf.sprintf "err %d %s" line message

let edge : (Fuzz.format * string) list =
  let lib body = "library(x) {\n" ^ body ^ "\n}\n" in
  let nand =
    "cell(N) { intrinsic_delay : 0.02; drive_resistance : 2.9;\n\
     intrinsic_slew : 0.02; slew_resistance : 3.4; function : \"!(A*B)\";\n\
     pin(A) { direction : input; capacitance : 0.003; }\n\
     pin(B) { direction : input; capacitance : 3e-3; }\n\
     pin(Y) { direction : output; } }"
  in
  [
    (Netlist_fmt, "");
    (Netlist_fmt, "# only a comment\r\n\tcircuit c # trailing\n");
    (Netlist_fmt, "input a cap=1e999\n");
    (Netlist_fmt, "input a\ninput b\nnet y\ngate g NAND2_X1 A=a B=b Y=y\n");
    (Verilog, "");
    (Verilog, "/* open\n\n");
    (Verilog, "// line\n/* a\n b */ module m$1 (a);\n input a;\n endmodule\n");
    (Verilog, "module m (a);\n  wire [3:0] a;\nendmodule\n");
    (Verilog, "module m (a);\n  input a;\n  assign a = 1;\nendmodule\n");
    (Verilog, "module m (a); input a; endmodule\n/ x");
    (Verilog, "module m (a); input a; endmodule /");
    (Verilog, "module m (a) # input a; endmodule");
    (Spef, "");
    (Spef, "*DESIGN d // comment\n*D_NET a 1.0\n*CAP\n1 a 0.5 // c\n*END\n");
    (Spef, "*D_NET a inf\n");
    (Spef, "*D_NET a\n*CAP\n1 a b 0.5\n1 b a 0.7\n*END\n");
    (Sdf, "");
    (Sdf, "(DELAYFILE (DESIGN \"a\nb\") (CELL (INSTANCE g) (DELAY (ABSOLUTE (IOPATH A Y (inf)))))");
    (Sdf, "(DELAYFILE (DESIGN \"x");
    (Sdf, "(DELAYFILE\n(CELL (INSTANCE g)\n(DELAY (ABSOLUTE (IOPATH A Y (0.5))))))");
    (Liberty, "");
    (Liberty, "/* open\n\n");
    (Liberty, "library(x) { /* a\n */ cell(N) { function : \"ab\n");
    (Liberty, lib ("// c\n/* a\n\n */ " ^ nand));
    (Liberty, lib (String.concat "+.5e-3" (String.split_on_char '3' nand)));
    (Liberty, lib "cell(N) { intrinsic_delay : --1; }");
    (Liberty, lib "cell(N) { intrinsic_delay : -; }");
    (Liberty, lib "cell(N) { intrinsic_delay : 1e999; }");
    (Liberty, lib "cell(N) { intrinsic_delay : .; }");
    (Liberty, lib "cell(N) { intrinsic_delay : 1.5E+2e; }");
    (Liberty, lib "cell(N) { function : $x; }");
    (Liberty, lib "cell(N) { / }");
    (Liberty, "library(x) {}\n/");
  ]

let () =
  let count = 200 in
  (* duplicate-coupling and unknown-attribute warnings are not part of
     the pinned result *)
  Tka_obs.Log.set_level None;
  let rng = Rng.create 20070604 in
  List.iter
    (fun fmt ->
      for i = 1 to count do
        let src = Fuzz.generate rng fmt in
        let src = if i mod 10 = 0 then src else Fuzz.mutate rng src in
        Printf.printf "%s %d %s\n" (Fuzz.name fmt) i (one_line (run fmt src))
      done)
    Fuzz.all;
  List.iteri
    (fun j (fmt, src) ->
      Printf.printf "%s edge%d %s\n" (Fuzz.name fmt) j (one_line (run fmt src)))
    edge
