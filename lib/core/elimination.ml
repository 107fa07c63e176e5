type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  rerank : Rerank.t;
  dual : Engine.result;
      (* addition-mode enumeration over the same circuit: the paper's
         dual problem. The strongest noise *contributors* are also prime
         removal candidates, and the addition objective sees the
         window-feedback amplification that the first-order removal
         benefit misses; per-k reports pick whichever candidate
         evaluates better. *)
}

let compute ?(capacity = Ilist.default_capacity) ?(use_pseudo = true)
    ?(use_higher_order = true) ?(filter = Tka_filter.Mode.Off) ?fixpoint
    ?victim_cache ~k topo =
  let config = { Engine.k; capacity; use_pseudo; use_higher_order; filter } in
  (* the two dual enumerations share one all-aggressor fixpoint *)
  let fixpoint =
    match fixpoint with Some f -> f | None -> Tka_noise.Iterate.run topo
  in
  (* each mode has its own cache view: keys hash the mode *)
  let run mode =
    Engine.compute ~config ~fixpoint
      ?victim_cache:(Option.bind victim_cache (fun f -> f mode))
      ~mode topo
  in
  let dual = run Engine.Addition in
  let result = run Engine.Elimination in
  (* the elimination engine's retained sink entries plus the dual
     engine's best pick; recombination also draws on the dual's sink
     lists *)
  let candidates i =
    Coupling_set.dedup (Engine.top result i @ Option.to_list (Engine.pick dual i))
  in
  let members i = candidates i @ Engine.top dual i in
  { result; topo; rerank = Rerank.create ~candidates ~members topo result; dual }

let set t i = Engine.pick t.result i
let dual_set t i = Engine.pick t.dual i
let candidates t = Rerank.candidates t.rerank
let estimated_delay t i = Engine.estimated_delay t.result i
let evaluate_set = Rerank.evaluate_set ~mode:Engine.Elimination
let evaluate_set_incr t = Rerank.evaluate_set_incr t.rerank
let pool t = Rerank.pool t.rerank
let best_choice t = Rerank.best_choice t.rerank
let evaluate t = Rerank.evaluate t.rerank
let evaluate_curve t = Rerank.evaluate_curve t.rerank
let noiseless_delay t = t.result.Engine.res_noiseless_delay
let all_aggressor_delay t = t.result.Engine.res_noisy_delay
let runtime t = t.result.Engine.res_runtime +. t.dual.Engine.res_runtime
