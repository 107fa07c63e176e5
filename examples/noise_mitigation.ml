(* Delay-noise mitigation workflow, the designer story from the paper's
   introduction: "if a designer can eliminate only 10 coupling
   situations (e.g., through shielding or spacing), the top-10
   aggressor elimination set points exactly to the set of couplings
   which must be fixed for the maximum reduction in delay noise."

   The i3 benchmark is analysed, the top-10 elimination set is
   computed, the fix is applied (couplings removed from the netlist),
   and the repaired design re-analysed from scratch.

     dune exec examples/noise_mitigation.exe *)

module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module B = Tka_layout.Benchmarks
module Iterate = Tka_noise.Iterate
module Elimination = Tka_topk.Elimination
module CS = Tka_topk.Coupling_set
module CN = Tka_noise.Coupled_noise
module Report = Tka_topk.Report

(* Shielding/spacing deletes the physical coupling capacitors. *)
let apply_fix nl fixed_couplings =
  Tka_circuit.Transform.remove_couplings nl fixed_couplings

let () =
  let nl = Option.get (B.by_name "i3") in
  let topo = Topo.create nl in
  let before = Iterate.run topo in
  Printf.printf "i3 before fixing: noiseless %.4f ns, noisy %.4f ns (%d couplings)\n\n"
    (Iterate.noiseless_delay before)
    (Iterate.circuit_delay before)
    (N.num_couplings nl);

  let budget = 10 in
  let elim = Elimination.compute ~k:budget topo in
  (match Elimination.set elim budget with
  | None -> print_endline "no elimination candidates found"
  | Some s ->
    Printf.printf "top-%d elimination set (shield/space these):\n" budget;
    List.iter print_endline (Report.set_lines nl s);
    Printf.printf "\npredicted delay with the fix: %.4f ns\n"
      (Elimination.evaluate elim budget);

    (* apply the fix physically: the directed picks map back to the
       physical capacitors to remove *)
    let physical =
      CS.to_list s
      |> List.map (fun id -> (CN.of_directed_id nl id).CN.dc_coupling)
      |> List.sort_uniq Int.compare
    in
    let fixed = apply_fix nl physical in
    let after = Iterate.run (Topo.create fixed) in
    Printf.printf
      "re-analysed after removing %d physical capacitors: %.4f ns\n"
      (List.length physical)
      (Iterate.circuit_delay after);
    Printf.printf "delay noise recovered: %.4f ns of %.4f ns total\n"
      (Iterate.circuit_delay before -. Iterate.circuit_delay after)
      (Iterate.total_delay_noise before))
