module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

let m_runs = Metrics.Counter.make "sta.runs"
let m_windows = Metrics.Counter.make "sta.arrival_windows"

type t = {
  topo : Topo.t;
  windows : Timing_window.t array;
}

let default_input_arrival _ =
  Timing_window.point ~t50:0. ~slew:Delay_calc.default_input_slew

let net_window ?(input_arrival = default_input_arrival) nl windows ~extra nid =
  if extra < 0. then invalid_arg "Analysis.run: negative extra_lat";
  let w =
    match (N.net nl nid).N.driver with
    | N.Primary_input -> input_arrival nid
    | N.Driven_by gid ->
      let g = N.gate nl gid in
      let delay = Delay_calc.stage_delay nl gid in
      let through (_, in_net) =
        let wi = windows.(in_net) in
        Timing_window.make
          ~eat:(wi.Timing_window.eat +. delay)
          ~lat:(wi.Timing_window.lat +. delay)
          ~slew_early:
            (Delay_calc.stage_output_slew nl gid
               ~input_slew:wi.Timing_window.slew_early)
          ~slew_late:
            (Delay_calc.stage_output_slew nl gid
               ~input_slew:wi.Timing_window.slew_late)
      in
      (match g.N.fanin with
      | [] -> assert false (* cells have >= 1 input *)
      | first :: rest ->
        List.fold_left
          (fun acc input -> Timing_window.merge acc (through input))
          (through first) rest)
  in
  Timing_window.extend_lat extra w

let run ?input_arrival ?(extra_lat = fun _ -> 0.) topo =
  Trace.with_span ~cat:"sta" "sta.arrival_propagation" @@ fun () ->
  Metrics.Counter.incr m_runs;
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let windows = Array.make nn (Timing_window.point ~t50:0. ~slew:1.) in
  Array.iter
    (fun nid ->
      windows.(nid) <-
        net_window ?input_arrival nl windows ~extra:(extra_lat nid) nid)
    (Topo.net_order topo);
  Metrics.Counter.add m_windows nn;
  { topo; windows }

let of_windows topo windows = { topo; windows }

let topo t = t.topo
let netlist t = Topo.netlist t.topo

let window t nid = t.windows.(nid)

let output_arrivals t =
  let nl = netlist t in
  List.map (fun nid -> (nid, t.windows.(nid).Timing_window.lat)) (N.outputs nl)

let worst_output t =
  match output_arrivals t with
  | [] -> invalid_arg "Analysis.worst_output: no primary outputs"
  | (n0, a0) :: rest ->
    fst
      (List.fold_left
         (fun (bn, ba) (n, a) -> if a > ba then (n, a) else (bn, ba))
         (n0, a0) rest)

let circuit_delay t =
  List.fold_left (fun acc (_, a) -> Float.max acc a) Float.neg_infinity
    (output_arrivals t)
