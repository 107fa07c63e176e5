module Iterate = Tka_noise.Iterate

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  reference : Iterate.trajectory Lazy.t;
      (* the noiseless run every exact re-evaluation below replays: an
         addition set differs from it by its own k couplings only.
         Forced by the first score, so callers that never re-rank never
         pay for it. Reruns mutate it — [t] must not be re-ranked from
         several threads at once. *)
}

let compute ?(capacity = Ilist.default_capacity) ?(use_pseudo = true)
    ?(use_higher_order = true) ?(filter = Tka_filter.Mode.Off) ?fixpoint ~k
    topo =
  let config = { Engine.k; capacity; use_pseudo; use_higher_order; filter } in
  {
    result = Engine.compute ~config ?fixpoint ~mode:Engine.Addition topo;
    topo;
    reference = lazy (Iterate.trajectory ~active:(fun _ -> false) topo);
  }

let candidates t i =
  if i < 1 || i >= Array.length t.result.Engine.res_top then []
  else List.map (fun c -> c.Engine.ch_set) t.result.Engine.res_top.(i)

let estimated_delay t i = Engine.estimated_delay t.result i

let evaluate_set topo s =
  Iterate.circuit_delay (Iterate.run ~active:(Coupling_set.contains_fn s) topo)

let evaluate_set_incr t s =
  Iterate.circuit_delay
    (Iterate.rerun (Lazy.force t.reference) ~flip:(Coupling_set.to_list s))

(* the first strongest of [sets] by exact score *)
let best_of t sets =
  List.fold_left
    (fun best s ->
      let d = evaluate_set_incr t s in
      match best with
      | Some (_, bd) when not (d > bd) -> best
      | _ -> Some (s, d))
    None sets

(* Recombination pool: every directed coupling named by a retained
   candidate. Cardinality 1 first — the static ranking is exact for
   singles (k = 1 matches brute force), so individually strong members
   are the likeliest optimum members and must survive truncation. *)
let ranked_members t i =
  List.concat_map
    (fun j -> List.concat_map Coupling_set.to_list (candidates t (j + 1)))
    (List.init i Fun.id)

(* The engine's objectives are first-order; the paper evaluates the
   whole sink I-list. Rank the retained candidates by the exact
   iterative analysis — together with a bounded recombination of their
   members (see {!Refine}) — and keep the strongest. *)
let pool t i =
  let universe =
    2 * Tka_circuit.Netlist.num_couplings (Tka_circuit.Topo.netlist t.topo)
  in
  let cands = candidates t i in
  let recombined =
    if cands = [] then []
    else Refine.subsets ~universe ~k:i ~members:(ranked_members t i) ()
  in
  Coupling_set.dedup (cands @ recombined)

let best_choice t i = best_of t (pool t i)

let set t i = Option.map fst (best_choice t i)

let evaluate t i =
  match best_choice t i with
  | None -> t.result.Engine.res_noiseless_delay
  | Some (_, d) -> d

(* Exact, monotone top-k curve: each cardinality's set is re-evaluated
   with the full iterative analysis; when the engine's pick evaluates
   worse than the previous cardinality's, the previous set padded with
   an extra coupling is used instead (sound: supersets are always at
   least as strong). *)
let evaluate_curve t ~ks =
  let nl = Tka_circuit.Topo.netlist t.topo in
  let universe = 2 * Tka_circuit.Netlist.num_couplings nl in
  let ks = List.sort_uniq Int.compare ks in
  let best = ref None in
  List.filter_map
    (fun k ->
      let cands =
        candidates t k
        @ (match !best with
          | Some (s, _) -> Option.to_list (Coupling_set.pad ~universe ~target:k s)
          | None -> [])
      in
      match best_of t cands with
      | None -> None
      | Some (s, d) ->
        best := Some (s, d);
        Some (k, s, d))
    ks

let noiseless_delay t = t.result.Engine.res_noiseless_delay
let all_aggressor_delay t = t.result.Engine.res_noisy_delay
let runtime t = t.result.Engine.res_runtime
