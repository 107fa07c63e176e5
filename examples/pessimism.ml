(* How pessimistic is the worst-case envelope bound? Monte-Carlo
   alignment sampling against the envelope worst case, per victim, on a
   generated benchmark — the analysis a signoff team runs before
   deciding how much guard-band to carry.

     dune exec examples/pessimism.exe            (defaults to i1)
     dune exec examples/pessimism.exe -- i3 500 *)

module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Analysis = Tka_sta.Analysis
module Mc = Tka_noise.Monte_carlo
module B = Tka_layout.Benchmarks

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "i1" in
  let samples = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 300 in
  let nl =
    match B.by_name name with
    | Some nl -> nl
    | None ->
      Printf.eprintf "unknown benchmark %S\n" name;
      exit 1
  in
  let topo = Topo.create nl in
  let a = Analysis.run topo in
  let windows = Analysis.window a in
  let rng = Tka_util.Rng.create 2026 in
  (* the ten victims with the largest worst-case bound *)
  let bounds =
    List.init (N.num_nets nl) (fun v ->
        ( v,
          Tka_noise.Victim_noise.delay_noise nl ~windows ~victim:v
            (Tka_noise.Coupled_noise.aggressors_of_victim nl v) ))
    |> List.filter (fun (_, b) -> b > 1e-6)
    |> List.sort (fun (_, x) (_, y) -> Float.compare y x)
    |> List.filteri (fun i _ -> i < 10)
  in
  Printf.printf
    "%s: %d sampled alignments per victim; bound = worst-case envelope\n\n"
    name samples;
  Printf.printf "%-12s %10s %10s %10s %10s %12s\n" "victim" "bound" "max" "p95"
    "mean" "pessimism";
  let ratios = ref [] in
  List.iter
    (fun (v, _) ->
      let s = Mc.sample_victim ~rng ~samples ~windows nl v in
      let pess = if s.Mc.mc_max > 0. then s.Mc.mc_bound /. s.Mc.mc_max else Float.nan in
      if s.Mc.mc_max > 0. then ratios := pess :: !ratios;
      Printf.printf "%-12s %10.4f %10.4f %10.4f %10.4f %11.2fx\n"
        (N.net nl v).N.net_name s.Mc.mc_bound s.Mc.mc_max s.Mc.mc_p95 s.Mc.mc_mean
        pess)
    bounds;
  (match !ratios with
  | [] -> ()
  | rs ->
    Printf.printf
      "\nThe bound is sound (every sample below it) and on these victims\n\
       overestimates the sampled worst case by %.2fx on average —\n\
       the price of guaranteed coverage of all alignments.\n"
      (Tka_util.Stats.mean rs))
