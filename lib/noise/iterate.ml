module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Analysis = Tka_sta.Analysis
module TW = Tka_sta.Timing_window
module CN = Coupled_noise

module Log = Tka_obs.Log
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

let log_src = Log.Src.create "iterate" ~doc:"iterative noise analysis"
let m_runs = Metrics.Counter.make "iterate.runs"
let m_passes = Metrics.Counter.make "iterate.passes"
let m_non_converged = Metrics.Counter.make "iterate.non_converged"
let g_residual = Metrics.Gauge.make "iterate.last_residual_ns"
let m_retimed = Metrics.Counter.make "iterate.retimed_nets"
let m_rescored = Metrics.Counter.make "iterate.rescored_victims"

(* shared by [run] and [rerun], whose results must agree bit for bit *)
let default_max_iterations = 30
let tolerance = 1e-4

type t = {
  analysis : Analysis.t;
  base : Analysis.t;
  noise : float array;
  iterations : int;
  converged : bool;
}

(* run-level metrics and the non-convergence warning *)
let finish nl ~max_iterations ~residual ~converged =
  Metrics.Counter.incr m_runs;
  Metrics.Gauge.set g_residual residual;
  if not converged then begin
    Metrics.Counter.incr m_non_converged;
    Log.warn log_src (fun m ->
        m
          ~fields:
            [
              Log.str "circuit" (N.name nl);
              Log.int "max_iterations" max_iterations;
              Log.float "residual_ns" residual;
            ]
          "noise iteration did not converge in %d sweeps on %s" max_iterations
          (N.name nl))
  end

let run ?(active = fun _ -> true) ?(max_iterations = default_max_iterations)
    topo =
  Trace.with_span ~cat:"noise" "iterate.run" @@ fun () ->
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let base = Analysis.run topo in
  let aggressors =
    Array.init nn (fun v ->
        List.filter active (Coupled_noise.aggressors_of_victim nl v))
  in
  let noise = Array.make nn 0. in
  let iterations = ref 0 in
  let converged = ref false in
  let residual = ref 0. in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    Metrics.Counter.incr m_passes;
    Trace.with_span ~cat:"noise"
      ~args:[ ("pass", Tka_obs.Jsonx.Int !iterations) ]
      "iterate.pass"
    @@ fun () ->
    let a = Analysis.run ~extra_lat:(fun nid -> noise.(nid)) topo in
    let w = Analysis.window a in
    let delta = ref 0. in
    for v = 0 to nn - 1 do
      let fresh =
        Victim_noise.delay_noise nl ~windows:w ~own_noise:noise.(v)
          ~victim:v aggressors.(v)
      in
      delta := Float.max !delta (Float.abs (fresh -. noise.(v)));
      noise.(v) <- fresh
    done;
    residual := !delta;
    Log.debug log_src (fun m ->
        m
          ~fields:
            [
              Log.str "circuit" (N.name nl);
              Log.int "pass" !iterations;
              Log.float "residual_ns" !delta;
            ]
          "%s: pass %d residual %.6f ns" (N.name nl) !iterations !delta);
    if !delta <= tolerance then converged := true
  done;
  (* final STA consistent with the converged noise vector *)
  let final = Analysis.run ~extra_lat:(fun nid -> noise.(nid)) topo in
  finish nl ~max_iterations ~residual:!residual ~converged:!converged;
  { analysis = final; base; noise; iterations = !iterations; converged = !converged }

(* Pass p of the reference run: the STA under the noise of pass p - 1,
   the noise computed under it, and the envelope of each directed
   coupling under its windows (by id, built on first demand). *)
type ref_pass = {
  rp_sta : Analysis.t;
  rp_noise : float array;
  rp_env : Tka_waveform.Envelope.t option array;
}

type trajectory = {
  tj_topo : Topo.t;
  tj_active : CN.directed -> bool;
  tj_aggressors : CN.directed list array;
  mutable tj_passes : ref_pass array;  (* [tj_passes.(p - 1)] is pass p *)
}

let trajectory ?(active = fun _ -> true) topo =
  let nl = Topo.netlist topo in
  {
    tj_topo = topo;
    tj_active = active;
    tj_aggressors =
      Array.init (N.num_nets nl) (fun v ->
          List.filter active (CN.aggressors_of_victim nl v));
    tj_passes = [||];
  }

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_window (a : TW.t) (b : TW.t) =
  same_float a.TW.eat b.TW.eat
  && same_float a.TW.lat b.TW.lat
  && same_float a.TW.slew_early b.TW.slew_early
  && same_float a.TW.slew_late b.TW.slew_late

let recorded_envelope nl rp d =
  let id = CN.directed_id d in
  match rp.rp_env.(id) with
  | Some e -> e
  | None ->
    let e =
      Envelope_builder.of_directed nl ~windows:(Analysis.window rp.rp_sta) d
    in
    rp.rp_env.(id) <- Some e;
    e

(* The reference's pass [p], recording the passes up to it. *)
let rec ref_pass tj p =
  let n = Array.length tj.tj_passes in
  if p <= n then tj.tj_passes.(p - 1)
  else begin
    Trace.with_span ~cat:"noise" "iterate.reference_pass" (fun () ->
        let nl = Topo.netlist tj.tj_topo in
        let prev =
          if n = 0 then Array.make (N.num_nets nl) 0.
          else tj.tj_passes.(n - 1).rp_noise
        in
        let sta = Analysis.run ~extra_lat:(Array.get prev) tj.tj_topo in
        let rp =
          { rp_sta = sta; rp_noise = [||];
            rp_env = Array.make (2 * N.num_couplings nl) None }
        in
        let noise =
          Array.mapi
            (fun v ags ->
              Victim_noise.delay_noise nl ~windows:(Analysis.window sta)
                ~own_noise:prev.(v) ~envelope:(recorded_envelope nl rp)
                ~victim:v ags)
            tj.tj_aggressors
        in
        tj.tj_passes <-
          Array.append tj.tj_passes [| { rp with rp_noise = noise } |]);
    ref_pass tj p
  end

(* Induction over passes, and within a pass over topological order: a
   value whose inputs are bitwise the reference's at the same pass is
   the reference's value, so only values with a moved input are
   recomputed — and compared back, so a result that lands on the same
   bits stops the propagation. Everything else is copied. *)
let rerun ?(max_iterations = default_max_iterations) tj ~flip =
  Trace.with_span ~cat:"noise" "iterate.rerun" @@ fun () ->
  let topo = tj.tj_topo in
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let active d = tj.tj_active d <> List.mem (CN.directed_id d) flip in
  (* the victims of flipped couplings: their aggressor lists differ from
     the reference's, so they are rescored on every pass *)
  let moved = Array.make nn false in
  let aggressors = Array.copy tj.tj_aggressors in
  List.iter
    (fun id ->
      let v = (CN.of_directed_id nl id).CN.dc_victim in
      moved.(v) <- true;
      aggressors.(v) <- List.filter active (CN.aggressors_of_victim nl v))
    flip;
  (* [wch]: this pass's window differs from the reference's; [nch]: the
     noise in [noise] (the previous pass's) differs from the reference's *)
  let wch = Array.make nn false in
  let noise = ref (Array.make nn 0.) and nch = ref (Array.make nn false) in
  let retime rp =
    let w = Array.init nn (Analysis.window rp.rp_sta) in
    Array.iter
      (fun n ->
        let fanin_moved =
          match (N.net nl n).N.driver with
          | N.Primary_input -> false
          | N.Driven_by g ->
            List.exists (fun (_, i) -> wch.(i)) (N.gate nl g).N.fanin
        in
        wch.(n) <- false;
        if !nch.(n) || fanin_moved then begin
          Metrics.Counter.incr m_retimed;
          w.(n) <- Analysis.net_window nl w ~extra:!noise.(n) n;
          wch.(n) <- not (same_window w.(n) (Analysis.window rp.rp_sta n))
        end)
      (Topo.net_order topo);
    w
  in
  let iterations = ref 0 and converged = ref false and residual = ref 0. in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    Metrics.Counter.incr m_passes;
    let rp = ref_pass tj !iterations in
    let windows = Array.get (retime rp) in
    let envelope d =
      if wch.(d.CN.dc_aggressor) then Envelope_builder.of_directed nl ~windows d
      else recorded_envelope nl rp d
    in
    let prev = !noise and prev_ch = !nch in
    let cur = Array.copy rp.rp_noise and ch = Array.make nn false in
    Array.iteri
      (fun v ags ->
        if
          moved.(v) || wch.(v) || prev_ch.(v)
          || List.exists (fun d -> wch.(d.CN.dc_aggressor)) ags
        then begin
          Metrics.Counter.incr m_rescored;
          cur.(v) <-
            Victim_noise.delay_noise nl ~windows ~own_noise:prev.(v) ~envelope
              ~victim:v ags;
          ch.(v) <- not (same_float cur.(v) rp.rp_noise.(v))
        end)
      aggressors;
    (* the residual over the full arrays, in [run]'s order *)
    let delta = ref 0. in
    Array.iteri
      (fun v x -> delta := Float.max !delta (Float.abs (x -. prev.(v))))
      cur;
    noise := cur;
    nch := ch;
    residual := !delta;
    if !delta <= tolerance then converged := true
  done;
  let final = retime (ref_pass tj (!iterations + 1)) in
  finish nl ~max_iterations ~residual:!residual ~converged:!converged;
  {
    analysis = Analysis.of_windows topo final;
    base = (ref_pass tj 1).rp_sta (* pass 1 runs under zero noise *);
    noise = !noise;
    iterations = !iterations;
    converged = !converged;
  }

let circuit_delay t = Analysis.circuit_delay t.analysis
let noiseless_delay t = Analysis.circuit_delay t.base
let total_delay_noise t = circuit_delay t -. noiseless_delay t
let windows t = Analysis.window t.analysis
let net_noise t nid = t.noise.(nid)
