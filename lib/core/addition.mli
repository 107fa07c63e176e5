(** Top-k aggressor {e addition} sets (Sections 3.1–3.3).

    Given a timing analysis without delay noise, the top-k addition set
    is the set of k aggressor–victim couplings whose delay noise, when
    added, maximises circuit delay — the "which couplings matter most"
    question. This module runs the implicit-enumeration engine in
    addition mode; {!Rerank} re-evaluates chosen sets exactly with the
    iterative noise analysis. *)

type t = {
  result : Engine.result;
  topo : Tka_circuit.Topo.t;
  rerank : Rerank.t;
      (** re-ranks {!candidates} against the noiseless reference,
          recombining the members of every cardinality's candidates *)
}

val compute :
  ?capacity:int ->
  ?use_pseudo:bool ->
  ?use_higher_order:bool ->
  ?filter:Tka_filter.Mode.t ->
  ?fixpoint:Tka_noise.Iterate.t ->
  k:int ->
  Tka_circuit.Topo.t ->
  t
(** Enumerate top-i addition sets for every [i <= k]. [fixpoint]
    optionally shares a precomputed all-aggressor analysis. [filter]
    (default [Off]) selects the pre-engine aggressor pruning mode. *)

val set : t -> int -> Coupling_set.t option
(** The chosen top-i set: the set of {!best_choice}. *)

val candidates : t -> int -> Coupling_set.t list
(** The engine's retained sink candidates for cardinality i, best first
    by the first-order score. *)

val estimated_delay : t -> int -> float
(** Engine estimate: noiseless delay + predicted noise of the set. *)

(** {1 Exact re-ranking} See {!Rerank}. *)

val pool : t -> int -> Coupling_set.t list
val best_choice : t -> int -> (Coupling_set.t * float) option
val evaluate : t -> int -> float
val evaluate_set : Tka_circuit.Topo.t -> Coupling_set.t -> float
val evaluate_set_incr : t -> Coupling_set.t -> float
val evaluate_curve : t -> ks:int list -> (int * Coupling_set.t * float) list

val noiseless_delay : t -> float
val all_aggressor_delay : t -> float
val runtime : t -> float
