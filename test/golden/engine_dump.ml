(* Dump the raw engine result of one enumeration, for the engine
   goldens: every retained sink candidate (set, objective as exact hex
   float, sink net), the per-cardinality picks and the pruning stats.

     engine_dump.exe NETLIST CASE

   CASE is one of add, elim (default config), elim-window (filter
   [Window]) and add-direct (no pseudo or higher-order candidates);
   k is 5 throughout. *)

module N = Tka_circuit.Netlist
module Engine = Tka_topk.Engine
module Ilist = Tka_topk.Ilist
module Coupling_set = Tka_topk.Coupling_set

let config_of_case = function
  | "add" -> (Engine.Addition, Engine.default_config ~k:5)
  | "elim" -> (Engine.Elimination, Engine.default_config ~k:5)
  | "elim-window" ->
    ( Engine.Elimination,
      { (Engine.default_config ~k:5) with filter = Tka_filter.Mode.Window } )
  | "add-direct" ->
    ( Engine.Addition,
      {
        (Engine.default_config ~k:5) with
        use_pseudo = false;
        use_higher_order = false;
      } )
  | c -> failwith ("engine_dump: unknown case " ^ c)

let () =
  let path = Sys.argv.(1) and case = Sys.argv.(2) in
  let nl = Tka_circuit.Netlist_format.parse_file ~lookup:Tka_cell.Default_lib.find path in
  let mode, config = config_of_case case in
  let r = Engine.compute ~config ~mode (Tka_circuit.Topo.create nl) in
  let choice (c : Engine.choice) =
    Printf.sprintf "{%s} %h %s"
      (Coupling_set.hash_key c.Engine.ch_set)
      c.Engine.ch_objective (N.net nl c.Engine.ch_sink).N.net_name
  in
  Printf.printf "engine %s case=%s mode=%s k=%d\n" (N.name nl) case
    (Engine.mode_name mode) config.Engine.k;
  Printf.printf "delays noiseless=%h noisy=%h\n" r.Engine.res_noiseless_delay
    r.Engine.res_noisy_delay;
  let st = r.Engine.res_stats in
  Printf.printf "stats candidates=%d dominated=%d duplicates=%d capped=%d checks=%d\n"
    st.Ilist.candidates st.Ilist.dominated st.Ilist.duplicates st.Ilist.capped
    st.Ilist.checks;
  Array.iteri
    (fun i c ->
      match c with
      | None -> Printf.printf "per_k %d none\n" i
      | Some c -> Printf.printf "per_k %d %s\n" i (choice c))
    r.Engine.res_per_k;
  Array.iteri
    (fun i l -> List.iteri (fun j c -> Printf.printf "top %d.%d %s\n" i j (choice c)) l)
    r.Engine.res_top
