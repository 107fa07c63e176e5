module Iterate = Tka_noise.Iterate

type t = {
  mode : Engine.mode;
  topo : Tka_circuit.Topo.t;
  reference : Iterate.trajectory Lazy.t;
      (* the run every exact score replays: a scored set differs from
         it by its own k couplings only. Forced by the first score, so
         callers that never re-rank never pay for it. Reruns mutate it. *)
  fallback : float;
  candidates : int -> Coupling_set.t list;
  members : int -> Coupling_set.t list;
}

let create ~candidates ~members topo (r : Engine.result) =
  let active, fallback =
    match r.Engine.res_mode with
    | Engine.Addition -> (Some (fun _ -> false), r.Engine.res_noiseless_delay)
    | Engine.Elimination -> (None, r.Engine.res_noisy_delay)
  in
  {
    mode = r.Engine.res_mode;
    topo;
    reference = lazy (Iterate.trajectory ?active topo);
    fallback;
    candidates;
    members;
  }

let mode t = t.mode
let candidates t i = t.candidates i

let evaluate_set ~mode topo s =
  let active =
    match mode with
    | Engine.Addition -> Coupling_set.contains_fn s
    | Engine.Elimination -> Coupling_set.excludes_fn s
  in
  Iterate.circuit_delay (Iterate.run ~active topo)

let evaluate_set_incr t s =
  Iterate.circuit_delay
    (Iterate.rerun (Lazy.force t.reference) ~flip:(Coupling_set.to_list s))

(* the first strongest of [sets] by exact score *)
let best_of t sets =
  let better d bd =
    match t.mode with Engine.Addition -> d > bd | Engine.Elimination -> d < bd
  in
  List.fold_left
    (fun best s ->
      let d = evaluate_set_incr t s in
      match best with
      | Some (_, bd) when not (better d bd) -> best
      | _ -> Some (s, d))
    None sets

let universe t =
  2 * Tka_circuit.Netlist.num_couplings (Tka_circuit.Topo.netlist t.topo)

(* Recombination pool, cardinality 1 first: the static ranking is exact
   for singles (k = 1 matches brute force), so individually strong
   members are the likeliest optimum members and must survive
   truncation. *)
let ranked_members t i =
  List.concat_map
    (fun j -> List.concat_map Coupling_set.to_list (t.members (j + 1)))
    (List.init i Fun.id)

let pool t i =
  let cands = t.candidates i in
  let recombined =
    if cands = [] then []
    else Refine.subsets ~universe:(universe t) ~k:i ~members:(ranked_members t i) ()
  in
  Coupling_set.dedup (cands @ recombined)

let best_choice t i = best_of t (pool t i)

let evaluate t i =
  match best_choice t i with None -> t.fallback | Some (_, d) -> d

let evaluate_curve t ~ks =
  let universe = universe t in
  let best = ref None in
  List.filter_map
    (fun k ->
      let cands =
        t.candidates k
        @ (match !best with
          | Some (s, _) -> Option.to_list (Coupling_set.pad ~universe ~target:k s)
          | None -> [])
      in
      match best_of t cands with
      | None -> None
      | Some (s, d) ->
        best := Some (s, d);
        Some (k, s, d))
    (List.sort_uniq Int.compare ks)
