(** Iterative noise / timing-window fixpoint analysis.

    Delay noise and timing windows depend on each other (the
    chicken-and-egg problem of Section 1): noise widens a net's window;
    a wider window lets the net couple more noise downstream — this is
    what makes indirect (secondary, tertiary, ...) aggressors matter.
    Following Sapatnekar's iterative scheme, the analysis alternates

    + STA with per-net extra late push = current noise estimates,
    + per-victim worst-case delay noise with the resulting windows,

    until the noise vector is stable. Starting from zero noise, it
    ascends to the least fixpoint (Zhou's complete-lattice argument).
    Industrial tools report 3–4 iterations; so does this implementation
    on the generated benchmarks.

    The [active] predicate selects which directed couplings inject
    noise: the whole design for ordinary analysis, only a candidate set
    when evaluating a top-k addition set, or everything {e except} a
    candidate set for elimination. *)

type t = {
  analysis : Tka_sta.Analysis.t;  (** final STA, windows include noise *)
  base : Tka_sta.Analysis.t;  (** noiseless STA of the same netlist *)
  noise : float array;  (** per-net delay noise at the fixpoint *)
  iterations : int;  (** sweeps executed *)
  converged : bool;
}

val run :
  ?active:(Coupled_noise.directed -> bool) ->
  ?max_iterations:int ->
  Tka_circuit.Topo.t ->
  t
(** Defaults: all couplings active, at most 30 iterations. A run has
    converged once no net's noise moves by more than 1e-4 ns (0.1 ps)
    in a pass. Logs a warning (source [iterate]) if the iteration cap
    is hit before convergence; each run
    updates the [iterate.runs]/[iterate.passes] counters and the
    [iterate.last_residual_ns] gauge when {!Tka_obs.Metrics} is
    enabled. *)

(** {1 Exact incremental reruns}

    A top-k candidate set differs from a fixed reference run (the
    all-aggressor run for elimination, the noiseless one for addition)
    by its own k couplings only. {!rerun} replays the reference's
    recorded passes and recomputes only the values whose inputs differ
    bitwise from the reference at the same pass: a net's window when
    its own noise or a fanin window moved, a victim's noise when its
    window, own noise, aggressor list or an active aggressor's window
    moved. The result is bitwise that of {!run}, pass count,
    [converged] and final STA included (docs/performance.md, "Exact
    incremental re-ranking"). *)

type trajectory
(** The reference {!run} under one active predicate. Its passes
    (with each pass's aggressor envelopes, at most one per directed
    coupling) are recorded on demand, also past its own convergence. Reruns mutate it: use it from one thread at a time. *)

val trajectory :
  ?active:(Coupled_noise.directed -> bool) -> Tka_circuit.Topo.t -> trajectory
(** The reference under [active] (default: all couplings). *)

val rerun : ?max_iterations:int -> trajectory -> flip:int list -> t
(** [rerun tj ~flip] is, bit for bit, {!run} with the same iteration
    cap under the reference's predicate with the directed couplings
    whose ids ({!Coupled_noise.directed_id}) are in [flip] toggled;
    [flip] holds directed couplings of the circuit. Updates the same
    metrics as {!run}, plus the [iterate.retimed_nets] /
    [iterate.rescored_victims] counters of recomputed values. *)

val circuit_delay : t -> float
(** Max noisy LAT over primary outputs. *)

val noiseless_delay : t -> float

val total_delay_noise : t -> float
(** [circuit_delay - noiseless_delay]. *)

val windows : t -> Envelope_builder.windows
(** Accessor for the final (noisy) windows. *)

val net_noise : t -> Tka_circuit.Netlist.net_id -> float
