type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  rerank : Rerank.t;
}

let compute ?(capacity = Ilist.default_capacity) ?(use_pseudo = true)
    ?(use_higher_order = true) ?(filter = Tka_filter.Mode.Off) ?fixpoint ~k
    topo =
  let config = { Engine.k; capacity; use_pseudo; use_higher_order; filter } in
  let result = Engine.compute ~config ?fixpoint ~mode:Engine.Addition topo in
  let candidates = Engine.top result in
  {
    result;
    topo;
    rerank = Rerank.create ~candidates ~members:candidates topo result;
  }

let candidates t = Rerank.candidates t.rerank
let estimated_delay t i = Engine.estimated_delay t.result i
let evaluate_set = Rerank.evaluate_set ~mode:Engine.Addition
let evaluate_set_incr t = Rerank.evaluate_set_incr t.rerank
let pool t = Rerank.pool t.rerank
let best_choice t = Rerank.best_choice t.rerank
let set t i = Option.map fst (best_choice t i)
let evaluate t = Rerank.evaluate t.rerank
let evaluate_curve t = Rerank.evaluate_curve t.rerank
let noiseless_delay t = t.result.Engine.res_noiseless_delay
let all_aggressor_delay t = t.result.Engine.res_noisy_delay
let runtime t = t.result.Engine.res_runtime
