(* Design-space sweep: how much of the total delay noise do the top-k
   aggressors capture (addition), and how much can k fixes recover
   (elimination)? Produces the CSV behind a Figure-10-style plot for a
   chosen benchmark.

     dune exec examples/design_sweep.exe            (defaults to i1, k <= 25)
     dune exec examples/design_sweep.exe -- i5 40 *)

module Topo = Tka_circuit.Topo
module B = Tka_layout.Benchmarks
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "i1" in
  let kmax = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 25 in
  let nl =
    match B.by_name name with
    | Some nl -> nl
    | None ->
      Printf.eprintf "unknown benchmark %S (expected i1..i10)\n" name;
      exit 1
  in
  let topo = Topo.create nl in
  let add = Addition.compute ~k:kmax topo in
  let elim = Elimination.compute ~k:kmax topo in
  let base = Addition.noiseless_delay add in
  let noisy = Addition.all_aggressor_delay add in
  Printf.printf "# %s: noiseless %.4f ns, all aggressors %.4f ns\n" name base noisy;
  Printf.printf
    "k,addition_delay_ns,addition_capture_pct,elimination_delay_ns,elimination_recovery_pct\n";
  let ks = List.init kmax (fun i -> i + 1) in
  let addc = Addition.evaluate_curve add ~ks in
  let elimc = Elimination.evaluate_curve elim ~ks in
  let total = noisy -. base in
  List.iter
    (fun k ->
      let find c = List.find_opt (fun (k', _, _) -> k' = k) c in
      match (find addc, find elimc) with
      | Some (_, _, da), Some (_, _, de) ->
        Printf.printf "%d,%.4f,%.1f,%.4f,%.1f\n" k da
          ((da -. base) /. total *. 100.)
          de
          ((noisy -. de) /. total *. 100.)
      | _ -> ())
    ks
