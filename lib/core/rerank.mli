(** Exact re-ranking of the engine's top-k candidates, both modes.

    The engine's objectives are first-order; the paper evaluates the
    whole sink I-list. This module scores the engine's retained
    candidates — together with a bounded recombination of their members
    ({!Refine}) — by the full iterative noise analysis and keeps the
    strongest: the largest delay for {!Engine.Addition}, the smallest
    for {!Engine.Elimination} (the paper's dual problem, Sec. 3.4).
    Ties go to the first set scored.

    Every score replays a reference trajectory
    ({!Tka_noise.Iterate.rerun}): the noiseless run for addition, the
    all-aggressor run for elimination, since a scored set differs from
    it by its own k couplings only. Each score is bitwise equal to the
    scratch {!evaluate_set}. The reference is built on the first score,
    so callers that never re-rank never pay for it. Reruns mutate it:
    re-rank a given [t] from one thread at a time. *)

type t

val create :
  candidates:(int -> Coupling_set.t list) ->
  members:(int -> Coupling_set.t list) ->
  Tka_circuit.Topo.t ->
  Engine.result ->
  t
(** [create ~candidates ~members topo r] re-ranks in [r]'s mode.
    [candidates i] are the sets scored first for cardinality [i];
    [members i] are the sets whose couplings, over cardinalities
    [1..i] in that order, feed the recombination of cardinality [i].
    The fallback of {!evaluate} is [r]'s noiseless delay (addition) or
    all-aggressor delay (elimination). *)

val mode : t -> Engine.mode

val candidates : t -> int -> Coupling_set.t list
(** The [candidates] given to {!create}. *)

val evaluate_set : mode:Engine.mode -> Tka_circuit.Topo.t -> Coupling_set.t -> float
(** Exact circuit delay with only the set's couplings active (addition)
    or with the set's couplings removed (elimination), by a scratch
    fixpoint. *)

val evaluate_set_incr : t -> Coupling_set.t -> float
(** {!evaluate_set} in [t]'s mode by a rerun of the reference, bitwise
    equal to it: how {!best_choice} and {!evaluate_curve} score. *)

val pool : t -> int -> Coupling_set.t list
(** Every set {!best_choice} scores for cardinality i: the candidates
    followed by the bounded recombination of the members
    ({!Refine.subsets}), deduplicated. Members of cardinality 1 come
    first: the static ranking is exact for singles, so they must
    survive the pool's truncation. *)

val best_choice : t -> int -> (Coupling_set.t * float) option
(** The exact-evaluation winner of {!pool} (first best on ties), with
    its delay. *)

val evaluate : t -> int -> float
(** The delay of {!best_choice}, or the fallback delay when no set of
    that cardinality exists. *)

val evaluate_curve : t -> ks:int list -> (int * Coupling_set.t * float) list
(** Exact delays for the requested cardinalities (sorted, deduplicated),
    each the best of the candidates plus a monotone repair: the
    previous cardinality's set padded by one coupling also competes (a
    superset is at least as strong at the exact fixpoint), so the curve
    is monotone like the paper's Table 2 — non-decreasing for addition,
    non-increasing for elimination — up to the iterative analysis's
    convergence tolerance (1e-4 ns). *)
