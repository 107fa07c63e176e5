(** Block-based static timing analysis.

    Propagates {!Timing_window} values from primary inputs to outputs in
    one topological pass. The [extra_lat] hook injects a per-net late
    push — this is how the iterative noise analysis ({!Tka_noise})
    feeds delay noise back into the timing graph, and how "what if this
    aggressor set switches" evaluations are performed. *)

type t

val run :
  ?input_arrival:(Tka_circuit.Netlist.net_id -> Timing_window.t) ->
  ?extra_lat:(Tka_circuit.Netlist.net_id -> float) ->
  Tka_circuit.Topo.t ->
  t
(** [run topo] computes windows for every net.

    - [input_arrival] gives primary-input windows (default: all inputs
      switch at exactly t = 0 with {!Delay_calc.default_input_slew});
    - [extra_lat nid] (default 0, must be >= 0) is added to the net's
      LAT after normal propagation, and therefore propagates
      downstream. *)

val net_window :
  ?input_arrival:(Tka_circuit.Netlist.net_id -> Timing_window.t) ->
  Tka_circuit.Netlist.t ->
  Timing_window.t array ->
  extra:float ->
  Tka_circuit.Netlist.net_id ->
  Timing_window.t
(** The per-net step of {!run}, the only window formula: one net's
    window from its fanin windows in the array, LAT pushed by
    [extra >= 0]. *)

val of_windows : Tka_circuit.Topo.t -> Timing_window.t array -> t
(** An analysis from a full per-net window array (taken over). *)

val topo : t -> Tka_circuit.Topo.t
val netlist : t -> Tka_circuit.Netlist.t

val window : t -> Tka_circuit.Netlist.net_id -> Timing_window.t

val circuit_delay : t -> float
(** Max LAT over primary outputs. *)

val worst_output : t -> Tka_circuit.Netlist.net_id
(** The primary output attaining {!circuit_delay} (the "sink node" at
    which the paper's algorithm reads its final irredundant list). *)

val output_arrivals : t -> (Tka_circuit.Netlist.net_id * float) list
(** LAT of every primary output. *)
