module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module TW = Tka_sta.Timing_window
module Analysis = Tka_sta.Analysis
module Iterate = Tka_noise.Iterate
module CN = Tka_noise.Coupled_noise
module EB = Tka_noise.Envelope_builder
module VN = Tka_noise.Victim_noise
module Envelope = Tka_waveform.Envelope
module Transition = Tka_waveform.Transition
module Pwl = Tka_waveform.Pwl
module Filter = Tka_filter.Filter
module Filter_mode = Tka_filter.Mode

module Log = Tka_obs.Log
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

let log_src = Log.Src.create "engine" ~doc:"top-k aggressor enumeration"
let m_victims = Metrics.Counter.make "engine.victims_enumerated"
let m_runs = Metrics.Counter.make "engine.runs"
let g_runtime = Metrics.Gauge.make "engine.last_runtime_s"
let h_victim_s = Metrics.Histogram.make "engine.victim_seconds"

type mode = Addition | Elimination

type config = {
  k : int;
  capacity : int;
  use_pseudo : bool;
  use_higher_order : bool;
  filter : Filter_mode.t;
}

let default_config ~k =
  {
    k;
    capacity = Ilist.default_capacity;
    use_pseudo = true;
    use_higher_order = true;
    filter = Filter_mode.Off;
  }

type choice = {
  ch_set : Coupling_set.t;
  ch_objective : float;
  ch_sink : N.net_id;
}

type result = {
  res_mode : mode;
  res_config : config;
  res_per_k : choice option array;
  res_top : choice list array;
  res_stats : Ilist.stats;
  res_noiseless_delay : float;
  res_noisy_delay : float;
  res_runtime : float;
}

(* How many sink candidates per cardinality are retained for exact
   re-ranking by the callers (the paper superposes every member of the
   sink's I-list; we keep the best few by the first-order score). *)
let sink_candidates = 6

(* Per-net, per-cardinality summaries retained after a net is processed:
   the best few coupling sets (by objective at that net), best first.
   Propagating more than the single best set (the paper's step 5) lets
   downstream victims recover upstream sets whose first-order rank was
   slightly off — the exact re-ranking at the sink then corrects it. *)
type cardinality_summary = (Coupling_set.t * float) list array
type summary = cardinality_summary

type cached_victim = {
  cv_summary : cardinality_summary;
  cv_out : cardinality_summary option;
  cv_stats : Ilist.stats;
  cv_direct : (N.net_id * cardinality_summary * Ilist.stats) list;
}

type victim_cache = {
  vc_lookup : summary_of:(N.net_id -> cardinality_summary) -> N.net_id -> cached_victim option;
  vc_store : N.net_id -> cached_victim -> unit;
}

let summaries_per_cardinality = 2

let eps = 1e-9

let mode_name = function Addition -> "addition" | Elimination -> "elimination"

(* ---- Stage 1: prepare ---- *)

(* What every stage of one run reads and the per-net slots the sweep
   writes. Each victim writes only its own slots of [summaries],
   [victim_stats] and [sinks]; nothing else is shared between the nets
   of one level (see the safety argument in docs/parallelism.md). *)
type run = {
  topo : Topo.t;
  nl : N.t;
  mode : mode;
  config : config;
  fix : Iterate.t;
  base_w : N.net_id -> TW.t;
  noisy_w : N.net_id -> TW.t;
  mode_w : N.net_id -> TW.t;
  filt : Filter.t;
  summaries : summary array;
  victim_stats : Ilist.stats option array;
  sinks : cardinality_summary option array;
      (* a primary output's whole I-lists as pairs: sink selection
         reads only sets and objectives *)
  direct_memo : (int, summary * Ilist.stats) Hashtbl.t;
      (* Memoised direct-only summaries of nets NOT upstream of the
         victim requesting them. Shared across the sweep; the mutex only
         guards table access — the enumeration itself runs outside it,
         and a lost insertion race recomputes a value that is identical
         by purity, so results stay deterministic at any jobs count.
         The stats recorded by the winning insertion are folded into the
         run totals at the end (in net-id order, also deterministic). *)
  memo_mutex : Mutex.t;
}

let prepare ~config ~fixpoint ~mode topo =
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let fix = match fixpoint with Some f -> f | None -> Iterate.run topo in
  let base_w = Analysis.window fix.Iterate.base in
  let noisy_w = Analysis.window fix.Iterate.analysis in
  let mode_w = match mode with Addition -> base_w | Elimination -> noisy_w in
  (* Pre-sized to the net count (capped: a 1M-net design does not need
     a quarter-million buckets up front) so the sweep never pays a
     rehash-and-copy of a large table mid-run. *)
  let direct_memo_size = max 64 (min 65536 (nn / 4)) in
  Log.debug log_src (fun m ->
      m "direct memo pre-sized" ~fields:[ Log.int "initial_size" direct_memo_size ]);
  {
    topo; nl; mode; config; fix; base_w; noisy_w; mode_w;
    (* Candidate pruning: prepared once per run against the same window
       accessor the envelopes below are built from, then consulted per
       victim. Pure and immutable, so sharing it across domains is safe. *)
    filt = Filter.prepare ~mode:config.filter ~windows:mode_w topo;
    summaries = Array.make nn [||];
    victim_stats = Array.make nn None;
    sinks = Array.make nn None;
    direct_memo = Hashtbl.create direct_memo_size;
    memo_mutex = Mutex.create ();
  }

let base_lat r v = (r.base_w v).TW.lat
let noisy_lat r v = (r.noisy_w v).TW.lat

(* Upstream component of the fixpoint shift at [v] (elimination). *)
let upstream_shift r v =
  Float.max 0. (noisy_lat r v -. base_lat r v -. Iterate.net_noise r.fix v)

(* ---- Stage 2: per-victim primaries ---- *)

(* One victim's live primaries and what every candidate source needs
   to turn an envelope into an I-list entry. *)
type victim = {
  v : N.net_id;
  tr : Transition.t;
      (* the victim's latest transition, anchored at the noiseless
         arrival: objectives measure noise added to / removed from the
         noiseless timing *)
  interval : Tka_util.Interval.t;  (* dominance interval *)
  prims : CN.directed array;  (* live primaries, in screening order *)
  env : CN.directed -> Envelope.t;  (* de-rated primary envelope, memoised *)
  derate : CN.directed -> Envelope.t -> Envelope.t;
  objective : Envelope.t -> float;
}

(* De-rate an envelope built for [d] by the filter's factor, keeping
   rebuilt (higher-order) envelopes consistent with the primary ones
   (1.0 — the common case — is the identity). *)
let derated derate_of (d : CN.directed) e =
  match derate_of (CN.directed_id d) with 1. -> e | f -> Envelope.scale f e

(* The objective of a candidate envelope at the victim: the delay noise
   it adds (addition), or the part of the total noise — everything
   attacking the victim, direct and propagated — that removing it
   recovers (elimination). The elimination objective is one pass:
   (ramp − total envelope) is precomputed once, and the remaining noise
   after removing env is the crossing of that floor plus env. *)
let objective r v ~(victim : Transition.t) direct_env =
  match r.mode with
  | Addition -> VN.delay_noise_of_envelope ~victim
  | Elimination ->
    let total_env =
      lazy
        (Envelope.add (Lazy.force direct_env)
           (Pseudo.envelope ~victim ~shift:(upstream_shift r v)))
    in
    let total_noise =
      lazy (VN.delay_noise_of_envelope ~victim (Lazy.force total_env))
    in
    let noisy_floor =
      lazy
        (Pwl.sub (Transition.waveform victim)
           (Envelope.waveform (Lazy.force total_env)))
    in
    fun env ->
      let restored = Pwl.add (Lazy.force noisy_floor) (Envelope.waveform env) in
      let remaining_noise =
        match Pwl.last_upcrossing restored 0.5 with
        | None -> 0.
        | Some t ->
          Float.min
            (Float.max 0. (t -. victim.Transition.t50))
            (VN.saturation_slews *. victim.Transition.slew)
      in
      Lazy.force total_noise -. remaining_noise

let primaries r v =
  (* Pre-engine screening: drops candidates the filter proves inert
     before any envelope is built (the whole point — with filtering
     off, [screen] returns the input list physically unchanged and a
     constant 1.0 factor, leaving this path bit-identical). *)
  let all_primaries, derate_of =
    Filter.screen r.filt (CN.aggressors_of_victim r.nl v)
  in
  let tr = Transition.make ~t50:(base_lat r v) ~slew:(r.mode_w v).TW.slew_late () in
  let interval = Dominance.interval ~victim:tr in
  let tbl = Hashtbl.create (max 16 (List.length all_primaries)) in
  let env (d : CN.directed) =
    match Hashtbl.find_opt tbl (CN.directed_id d) with
    | Some e -> e
    | None ->
      let e = derated derate_of d (EB.of_directed r.nl ~windows:r.mode_w d) in
      Hashtbl.replace tbl (CN.directed_id d) e;
      e
  in
  (* A primary whose envelope is zero everywhere on the dominance
     interval cannot change any candidate's objective (the saturated
     crossing never leaves the interval), so it is inert at this
     victim — on dense circuits most couplings are inert for most
     victims, and dropping them up front shrinks every later step.
     For the elimination objective the interval test is the same: the
     removed envelope only matters where the crossing can sit. *)
  let live =
    List.filter
      (fun d -> Pwl.max_on interval (Envelope.waveform (env d)) > eps)
      all_primaries
  in
  {
    v;
    tr;
    interval;
    prims = Array.of_list live;
    env;
    derate = derated derate_of;
    objective =
      objective r v ~victim:tr (lazy (Envelope.combine (List.map env live)));
  }

let entry pv set env =
  { Ilist.couplings = set; envelope = env; objective = pv.objective env }

(* ---- Stage 3: dominance masks and the strong set ---- *)

(* Extension rule (Theorem 1): extending a set S with primary d is
   redundant when some primary d' NOT in S strictly dominates d —
   S ∪ {d'} dominates S ∪ {d}. So each primary carries its set of
   strict dominators (ties broken by id so equal envelopes do not
   eliminate each other), and is allowed as an extension of S only
   when all of them already belong to S. Non-dominated primaries
   are always allowed. Returns the extension candidates of an entry. *)
let extensions pv =
  let np = Array.length pv.prims in
  (* Interned primary universe: each live primary gets a dense index
     into [prims]; dominator sets and entry membership then live in
     bitsets over [0, np), so the extension filter below is a handful
     of word ands instead of id-list scans per (entry, primary) pair. *)
  let idx_of_id = Hashtbl.create (max 16 np) in
  Array.iteri
    (fun idx (d : CN.directed) -> Hashtbl.replace idx_of_id (CN.directed_id d) idx)
    pv.prims;
  let dom_mask =
    Array.mapi
      (fun i (d : CN.directed) ->
        let mask = Tka_util.Bitset.make np in
        let ed = pv.env d in
        Array.iteri
          (fun i' (d' : CN.directed) ->
            if i' <> i then begin
              let ed' = pv.env d' in
              let fwd = Dominance.dominates ~interval:pv.interval ed' ed in
              let bwd = Dominance.dominates ~interval:pv.interval ed ed' in
              if fwd && ((not bwd) || CN.directed_id d' < CN.directed_id d)
              then Tka_util.Bitset.set mask i'
            end)
          pv.prims;
        mask)
      pv.prims
  in
  (* extension fan-out bound: only the strongest primaries (by
     singleton objective) plus any primary whose dominators are all in
     the set already (the stacking case) are tried *)
  let strong = Array.make (max 1 np) false in
  let scored =
    Array.mapi
      (fun idx d -> (idx, VN.delay_noise_of_envelope ~victim:pv.tr (pv.env d)))
      pv.prims
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) scored;
  Array.iteri (fun rank (idx, _) -> if rank < 8 then strong.(idx) <- true) scored;
  (* One scratch membership mask, reloaded per entry: set-bit per
     primary member of the entry's coupling set (pseudo/higher ids have
     no primary index and cannot dominate). *)
  let entry_mask = Tka_util.Bitset.make np in
  fun (e : Ilist.entry) ->
    let out = ref [] in
    Tka_util.Bitset.clear entry_mask;
    Coupling_set.iter
      (fun id ->
        match Hashtbl.find_opt idx_of_id id with
        | Some idx -> Tka_util.Bitset.set entry_mask idx
        | None -> ())
      e.Ilist.couplings;
    Array.iteri
      (fun idx (d : CN.directed) ->
        let id = CN.directed_id d in
        if
          (not (Coupling_set.mem id e.Ilist.couplings))
          && (strong.(idx) || Tka_util.Bitset.intersects dom_mask.(idx) entry_mask)
          && Tka_util.Bitset.subset dom_mask.(idx) entry_mask
        then
          out :=
            entry pv
              (Coupling_set.add id e.Ilist.couplings)
              (Envelope.add e.Ilist.envelope (pv.env d))
            :: !out)
      pv.prims;
    !out

(* ---- Stage 4: pseudo and higher-order candidate sources ---- *)

(* The retained pairs of summary [s] at cardinality [i]; [] past its end. *)
let at (s : summary) i = if Array.length s > i then s.(i) else []

(* Pseudo candidates of cardinality [i], one per driver input and
   retained input set. *)
let pseudo_candidates r pv i =
  match N.driver_gate r.nl pv.v with
  | None -> []
  | Some g ->
    let delay = Tka_sta.Delay_calc.stage_delay r.nl g.N.gate_id in
    let v = pv.v and victim = pv.tr in
    List.concat_map
      (fun (_, u) ->
        List.filter_map
          (fun (set, du) ->
            if du <= eps then None
            else
              match r.mode with
              | Addition ->
                let slack = base_lat r v -. (base_lat r u +. delay) in
                let shift = Float.max 0. (du -. Float.max 0. slack) in
                if shift <= eps then None
                else Some (entry pv set (Pseudo.envelope ~victim ~shift))
              | Elimination ->
                let p_v = upstream_shift r v in
                let slack = noisy_lat r v -. (noisy_lat r u +. delay) in
                let reduction =
                  Float.max 0. (Float.min p_v (du -. Float.max 0. slack))
                in
                if reduction <= eps then None
                else
                  Some
                    (entry pv set
                       (Pseudo.reduction_envelope ~victim ~total:p_v
                          ~removed:reduction)))
          (at r.summaries.(u) i))
      g.N.fanin

(* Higher-order construction is the most expensive candidate source
   (each needs a fresh widened-envelope build): restrict it to the
   strongest primaries and to the aggressor net's best summary. *)
let higher_order_pool pv =
  List.stable_sort
    (fun a b -> Float.compare (Envelope.peak (pv.env b)) (Envelope.peak (pv.env a)))
    (Array.to_list pv.prims)
  |> List.filteri (fun j _ -> j < 8)

(* Higher-order candidates of innate cardinality [i]: primary d whose
   window is altered by the best (i-1)-set attacking the aggressor net
   itself ([summary_of]). *)
let higher_candidates r pv ~summary_of ~pool i =
  if i < 2 then []
  else
    List.concat_map
      (fun (d : CN.directed) ->
        let a = d.CN.dc_aggressor and id = CN.directed_id d in
        match at (summary_of a) (i - 1) with
        | (set_t, delta) :: _ when not (delta <= eps || Coupling_set.mem id set_t) ->
          let combo = Coupling_set.add id set_t in
          if Coupling_set.cardinality combo <> i then []
          else
            [
              entry pv combo
                (match r.mode with
                | Addition ->
                  pv.derate d
                    (EB.of_directed_widened r.nl ~windows:r.mode_w ~extra_lat:delta d)
                | Elimination ->
                  (* removing the combo shrinks the aggressor window:
                     the envelope that disappears is (full − narrowed) *)
                  let w = r.mode_w a in
                  let lat' = Float.max w.TW.eat (w.TW.lat -. delta) in
                  let narrowed =
                    pv.derate d (EB.with_window r.nl ~window:{ w with TW.lat = lat' } d)
                  in
                  Envelope.of_waveform
                    (Pwl.sub (Envelope.waveform (pv.env d)) (Envelope.waveform narrowed)));
            ]
        | _ -> [])
      (Lazy.force pool)

(* ---- Stage 5: enumeration (the I-list prune loop) ---- *)

(* deep in the sweep candidates differ marginally; tapering the list
   capacity there keeps the k-sweep near-linear without touching the
   small-k region the validation checks *)
let capacity_at config i =
  if i <= 20 then config.capacity else max 8 (config.capacity - ((i - 20) / 4))

(* The (set, objective) pairs of each I-list, at most [keep] per
   cardinality: the one conversion from enumerated entries to what a
   net publishes (a summary) or a sink retains (all of them). *)
let pairs ?keep (ilists : Ilist.entry list array) : cardinality_summary =
  let pair (e : Ilist.entry) = (e.Ilist.couplings, e.Ilist.objective) in
  Array.map
    (fun l ->
      List.map pair
        (match keep with None -> l | Some n -> List.filteri (fun j _ -> j < n) l))
    ilists

let rec enumerate r ~on_direct ~stats ~use_pseudo ~use_higher ~upto ~level v =
  let pv = primaries r v in
  let extend = extensions pv in
  let pool = lazy (higher_order_pool pv) in
  let summary_of = summary_of_aggressor r ~on_direct ~level in
  let ilists = Array.make (upto + 1) [] in
  ilists.(0) <-
    [ { Ilist.couplings = Coupling_set.empty; envelope = Envelope.zero; objective = 0. } ];
  for i = 1 to upto do
    let cands =
      List.concat_map extend ilists.(i - 1)
      @ (if use_pseudo then pseudo_candidates r pv i else [])
      @ if use_higher then higher_candidates r pv ~summary_of ~pool i else []
    in
    ilists.(i) <-
      Ilist.prune ~capacity:(capacity_at r.config i) ~interval:pv.interval ~stats cands
  done;
  ilists

(* Best sets attacking an aggressor net: the full summary when the net
   lies at a strictly lower level than the requesting victim (it is
   then guaranteed published, both in the sequential sweep and at a
   level barrier of the parallel one), otherwise a memoised
   direct-aggressors-only enumeration. The rule depends only on
   levels — not on how far the sweep has progressed — so every jobs
   count makes identical decisions. *)
and summary_of_aggressor r ~on_direct ~level a : summary =
  if Topo.net_level r.topo a < level && Array.length r.summaries.(a) > 0 then
    r.summaries.(a)
  else begin
    let memo f = Mutex.protect r.memo_mutex f in
    let s, st =
      match memo (fun () -> Hashtbl.find_opt r.direct_memo a) with
      | Some e -> e
      | None ->
        let st = Ilist.fresh_stats () in
        let ilists =
          enumerate r
            ~on_direct:(fun _ _ _ -> ())
            ~stats:st ~use_pseudo:false ~use_higher:false
            ~upto:(max 0 (r.config.k - 1))
            ~level:(Topo.net_level r.topo a) a
        in
        let e = (pairs ~keep:summaries_per_cardinality ilists, st) in
        memo (fun () ->
            match Hashtbl.find_opt r.direct_memo a with
            | Some e -> e
            | None ->
              Hashtbl.replace r.direct_memo a e;
              e)
    in
    on_direct a s st;
    s
  end

(* ---- Stage 6: the topological sweep ---- *)

(* A cached record replaces the whole per-victim unit of work. The
   consulted direct summaries are replayed into the shared memo so the
   memo key set — and therefore the merged stats — match a from-scratch
   run exactly (the values are identical by purity: a valid cache hit
   implies the aggressor's inputs are unchanged). *)
let install_cached r v (cv : cached_victim) =
  r.summaries.(v) <- cv.cv_summary;
  r.victim_stats.(v) <- Some cv.cv_stats;
  List.iter
    (fun (a, s, st) ->
      Mutex.protect r.memo_mutex (fun () ->
          if not (Hashtbl.mem r.direct_memo a) then
            Hashtbl.replace r.direct_memo a (s, st)))
    cv.cv_direct;
  r.sinks.(v) <- cv.cv_out

(* Reject records that cannot have come from an equivalent run (a
   provider bug or stale checkpoint): wrong cardinality range, or a
   primary output without its sink lists. *)
let cached_valid r v (cv : cached_victim) =
  Array.length cv.cv_summary = r.config.k + 1
  &&
  match cv.cv_out with
  | Some out -> Array.length out = r.config.k + 1
  | None -> not (N.net r.nl v).N.is_output

let process r ~victim_cache v =
  match
    Option.bind victim_cache (fun c ->
        (* lower levels are final here (the sweep is level-
           synchronous), so the provider may hash their values *)
        match c.vc_lookup ~summary_of:(fun u -> r.summaries.(u)) v with
        | Some cv when cached_valid r v cv -> Some cv
        | Some _ | None -> None)
  with
  | Some cv -> install_cached r v cv
  | None ->
    let st = Ilist.fresh_stats () in
    let consulted = ref [] in
    let on_direct a s dst =
      if not (List.exists (fun (a', _, _) -> a' = a) !consulted) then
        consulted := (a, s, dst) :: !consulted
    in
    let ilists =
      enumerate r ~on_direct ~stats:st ~use_pseudo:r.config.use_pseudo
        ~use_higher:r.config.use_higher_order ~upto:r.config.k
        ~level:(Topo.net_level r.topo v) v
    in
    r.summaries.(v) <- pairs ~keep:summaries_per_cardinality ilists;
    r.victim_stats.(v) <- Some st;
    if (N.net r.nl v).N.is_output then r.sinks.(v) <- Some (pairs ilists);
    Option.iter
      (fun c ->
        c.vc_store v
          {
            cv_summary = r.summaries.(v);
            cv_out = r.sinks.(v);
            cv_stats = st;
            cv_direct = List.rev !consulted;
          })
      victim_cache

let instrumented r ~victim_cache v =
  (* observability disabled: no span, no histogram, no clock reads *)
  if Trace.is_enabled () || Metrics.is_enabled () then begin
    Metrics.Counter.incr m_victims;
    let t0 = Tka_obs.Clock.now_ns () in
    (* prune attribution is only known after processing, so it is
       attached via the late-args hook *)
    Trace.with_span_args ~cat:"engine"
      ~args:[ ("net", Tka_obs.Jsonx.Str (N.net r.nl v).N.net_name) ]
      "engine.victim"
      (fun () ->
        match r.victim_stats.(v) with
        | None -> []
        | Some st ->
          [
            ("candidates", Tka_obs.Jsonx.Int st.Ilist.candidates);
            ("dominated", Tka_obs.Jsonx.Int st.Ilist.dominated);
            ("duplicates", Tka_obs.Jsonx.Int st.Ilist.duplicates);
            ("capped", Tka_obs.Jsonx.Int st.Ilist.capped);
            ("checks", Tka_obs.Jsonx.Int st.Ilist.checks);
          ])
      (fun () -> process r ~victim_cache v);
    Metrics.Histogram.observe h_victim_s (Tka_obs.Clock.seconds_since t0)
  end
  else process r ~victim_cache v

let sweep r ~victim_cache =
  let visit = instrumented r ~victim_cache in
  let pool = Tka_parallel.Pool.get_default () in
  if Tka_parallel.Pool.size pool <= 1 then Array.iter visit (Topo.net_order r.topo)
  else begin
    let shards = Topo.cone_shards r.topo in
    if Array.length shards > 1 then
      (* Cone-sharded sweep: every net the enumeration of a victim can
         consult (coupled aggressors, driver fanin for pseudo, coupled
         nets for higher-order) lies in the victim's own shard, and a
         shard's nets run sequentially in net_order — so all reads see
         published summaries and every jobs count computes identical
         per-victim inputs. Totals are merged in net order, same as the
         level-synchronous path. *)
      Tka_parallel.Shard.run pool ~shards visit
    else
      (* Level-synchronous sweep: a net only reads summaries of strictly
         lower levels, all published before its level starts (the pool
         call is the barrier between levels). *)
      Array.iter
        (fun nets -> Tka_parallel.Pool.iter ~chunk:1 pool visit nets)
        (Topo.level_nets r.topo)
  end

(* ---- Stage 7: stats merge ---- *)

(* Deterministic totals: per-victim records merged in net order, then
   the memoised direct enumerations in net-id order. All fields are
   sums, so the totals equal the sequential single-record run. *)
let total_stats r =
  let stats = Ilist.fresh_stats () in
  Array.iter
    (fun v -> Option.iter (Ilist.merge_stats stats) r.victim_stats.(v))
    (Topo.net_order r.topo);
  Hashtbl.fold (fun a (_, st) acc -> (a, st) :: acc) r.direct_memo []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, st) -> Ilist.merge_stats stats st);
  stats

(* ---- Stage 8: sink selection with monotone padding ---- *)

(* For each cardinality, gather every entry of every primary output's
   irredundant list (the paper reads the whole I-list_k of the sink),
   score by the resulting circuit arrival, and keep the best few for
   exact re-ranking by the caller. *)
let select_sinks r =
  (* Prepending in net order reproduces the processing-order prepends of
     the sequential sweep, keeping tie-breaks unchanged. *)
  let sinks =
    Array.fold_left
      (fun acc v -> match r.sinks.(v) with Some s -> (v, s) :: acc | None -> acc)
      [] (Topo.net_order r.topo)
  in
  let arrival q delta =
    match r.mode with
    | Addition -> base_lat r q +. delta
    | Elimination -> noisy_lat r q -. delta
  in
  (* A sink's score is the max arrival over all primary outputs with its
     own output shifted by [obj]. The best other unshifted arrival is the
     overall best, or the runner-up for the output that holds the best,
     so scoring an entry is O(1). Ties fill the runner-up, so this is
     the max over all outputs, as a fold would compute it. *)
  let best = ref Float.neg_infinity and second = ref Float.neg_infinity in
  let best_po = ref (-1) in
  List.iter
    (fun q ->
      let a = arrival q 0. in
      if a > !best then begin
        second := !best;
        best := a;
        best_po := q
      end
      else if a > !second then second := a)
    (N.outputs r.nl);
  let score po obj =
    Float.max (if po = !best_po then !second else !best) (arrival po obj)
  in
  let better (a, _) (b, _) =
    match r.mode with
    | Addition -> Float.compare b a
    | Elimination -> Float.compare a b
  in
  Array.init (r.config.k + 1) (fun i ->
      if i = 0 then []
      else begin
        let scored =
          List.concat_map
            (fun (po, s) ->
              List.map
                (fun (set, obj) ->
                  (score po obj, { ch_set = set; ch_objective = obj; ch_sink = po }))
                s.(i))
            sinks
        in
        (* dedupe identical sets, keep the best few *)
        let seen : unit Coupling_set.Tbl.t = Coupling_set.Tbl.create 16 in
        List.filter_map
          (fun (_, c) ->
            if Coupling_set.Tbl.mem seen c.ch_set then None
            else begin
              Coupling_set.Tbl.replace seen c.ch_set ();
              Some c
            end)
          (List.stable_sort better scored)
        |> List.filteri (fun j _ -> j < sink_candidates)
      end)

(* Monotone fix-up: a cardinality-i set can always contain the best
   (i-1)-set plus one more coupling, so the achievable objective never
   decreases with i. When a sink's irredundant list thins out (e.g. a
   primary output with a single primary aggressor), pad the previous
   choice with an arbitrary unused coupling instead of regressing. The
   padded choice also heads [top.(i)]. Returns the per-k picks. *)
let pad_monotone r (top : choice list array) =
  let per_k = Array.map (function c :: _ -> Some c | [] -> None) top in
  let universe = 2 * N.num_couplings r.nl in
  for i = 2 to r.config.k do
    match per_k.(i - 1) with
    | Some cp
      when match per_k.(i) with
           | None -> true
           | Some ci -> ci.ch_objective < cp.ch_objective ->
      let padded =
        Option.map
          (fun set -> { cp with ch_set = set })
          (Coupling_set.pad ~universe ~target:i cp.ch_set)
      in
      per_k.(i) <- padded;
      Option.iter (fun c -> top.(i) <- c :: top.(i)) padded
    | Some _ | None -> ()
  done;
  per_k

let compute ?config ?fixpoint ?victim_cache ~mode topo =
  let config = match config with Some c -> c | None -> default_config ~k:10 in
  let k = config.k in
  if k < 1 then invalid_arg "Engine.compute: k must be >= 1";
  Trace.with_span ~cat:"engine"
    ~args:[ ("mode", Tka_obs.Jsonx.Str (mode_name mode)); ("k", Tka_obs.Jsonx.Int k) ]
    "engine.compute"
  @@ fun () ->
  let t_start = Tka_obs.Clock.now_ns () in
  let r = prepare ~config ~fixpoint ~mode topo in
  sweep r ~victim_cache;
  let stats = total_stats r in
  let top = Trace.with_span ~cat:"engine" "engine.sink_selection" (fun () -> select_sinks r) in
  let per_k = pad_monotone r top in
  let res_runtime = Tka_obs.Clock.seconds_since t_start in
  Metrics.Counter.incr m_runs;
  Metrics.Gauge.set g_runtime res_runtime;
  let nl = r.nl in
  Log.debug log_src (fun m ->
      m
        ~fields:
          [
            Log.str "circuit" (N.name nl);
            Log.int "k" k;
            Log.str "mode" (mode_name mode);
            Log.float "runtime_s" res_runtime;
            Log.int "candidates" stats.Ilist.candidates;
            Log.int "dominance_checks" stats.Ilist.checks;
            Log.int "dominated" stats.Ilist.dominated;
            Log.int "capped" stats.Ilist.capped;
          ]
        "%s: k=%d %s in %.2fs (candidates=%d dominated=%d capped=%d)" (N.name nl)
        k (mode_name mode) res_runtime stats.Ilist.candidates
        stats.Ilist.dominated stats.Ilist.capped);
  {
    res_mode = mode;
    res_config = config;
    res_per_k = per_k;
    res_top = top;
    res_stats = stats;
    res_noiseless_delay = Analysis.circuit_delay r.fix.Iterate.base;
    res_noisy_delay = Iterate.circuit_delay r.fix;
    res_runtime;
  }

let estimated_delay r i =
  if i < 0 || i >= Array.length r.res_per_k then
    invalid_arg "Engine.estimated_delay: cardinality out of range";
  match r.res_per_k.(i) with
  | None -> (
    match r.res_mode with
    | Addition -> r.res_noiseless_delay
    | Elimination -> r.res_noisy_delay)
  | Some c -> (
    match r.res_mode with
    | Addition -> Float.max r.res_noiseless_delay (r.res_noiseless_delay +. c.ch_objective)
    | Elimination -> Float.max r.res_noiseless_delay (r.res_noisy_delay -. c.ch_objective))

let pick r i =
  if i < 1 || i >= Array.length r.res_per_k then None
  else Option.map (fun c -> c.ch_set) r.res_per_k.(i)

let top r i =
  if i < 1 || i >= Array.length r.res_top then []
  else List.map (fun c -> c.ch_set) r.res_top.(i)
