(* The four benchmark workloads: circuit generation, one timed run in
   the order the tka CLI runs it, and the output checks. *)

module N = Tka_circuit.Netlist
module Nf = Tka_circuit.Netlist_format
module Topo = Tka_circuit.Topo
module Iterate = Tka_noise.Iterate
module Engine = Tka_topk.Engine
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination
module Report = Tka_topk.Report
module Cs = Tka_topk.Coupling_set
module Repair = Tka_incr.Repair
module Metrics = Tka_obs.Metrics
module J = Tka_obs.Jsonx

type kind = Topk_elim | Topk_add | Enum | Repair_loop

type t = { name : string; kind : kind; circuit : string; k : int }

(* Circuits are the smallest Table-2 classes on which each layer still
   shows, so that a run covers a panel of circuits (see README.md). *)
let all =
  [
    { name = "topk-elim"; kind = Topk_elim; circuit = "i1"; k = 5 };
    { name = "topk-add"; kind = Topk_add; circuit = "i4"; k = 5 };
    { name = "enum"; kind = Enum; circuit = "i5"; k = 10 };
    { name = "repair"; kind = Repair_loop; circuit = "i1"; k = 5 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The cardinalities `tka topk -k K` reports. *)
let report_ks k =
  List.filter (fun i -> i <= k) [ 1; 2; 3; 5; 10; 20; 50 ] @ [ k ]
  |> List.sort_uniq Int.compare

(* The workload's circuit: its Table-2 spec with the seed offset added
   to the spec's own seed. *)
let generate ~circuit ~seed =
  match Tka_layout.Benchmarks.spec_of_name circuit with
  | None -> failwith (Printf.sprintf "unknown circuit %S" circuit)
  | Some spec ->
    Tka_layout.Benchmarks.generate
      { spec with Tka_layout.Benchmarks.sp_seed = spec.Tka_layout.Benchmarks.sp_seed + seed }

(* ------------------------------------------------------------------ *)
(* Output checks                                                      *)
(* ------------------------------------------------------------------ *)

type checks = { mutable attempted : int; mutable failures : string list }

let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.attempted <- c.attempted + 1;
      if not ok then c.failures <- msg :: c.failures)
    fmt

(* k distinct directed couplings of this netlist *)
let well_formed nl s k =
  let ids = Cs.to_list s in
  let universe = 2 * N.num_couplings nl in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  List.length ids = k && increasing ids
  && List.for_all (fun i -> i >= 0 && i < universe) ids

(* The report text lines for cardinality [k]: the header and the set. *)
let report_block text k =
  let lines = String.split_on_char '\n' text in
  let header = Printf.sprintf "top-%d:" k in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let rec find = function
    | [] -> None
    | l :: rest when starts header l ->
      let rec members acc = function
        | m :: rest when starts "  " m -> members (m :: acc) rest
        | _ -> List.rev acc
      in
      Some (l, members [] rest)
    | _ :: rest -> find rest
  in
  find lines

(* The evaluated delay the report prints for cardinality [k]. *)
let reported_delay text k =
  Option.bind (report_block text k) (fun (header, _) ->
      Scanf.sscanf_opt header "top-%d: estimated %f ns, evaluated %f ns%!" (fun _ _ d -> d))

(* What a top-k run leaves to check: the report and the means to
   recompute each answer. [share d] is the share of the all-aggressor
   delay noise that a set with evaluated delay [d] adds (addition) or
   removes (elimination). *)
type topk = {
  stats : Tka_topk.Ilist.stats list;
  text : string;
  share : float -> float;
  estimate : int -> float;
  best : int -> (Cs.t * float) option;
  evaluate_set : Topo.t -> Cs.t -> float;
}

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))
let digest s = Digest.to_hex (Digest.string s)

(* Quality from the printed report; with [full], every answer is also
   recomputed and re-evaluated from scratch without the memo. *)
let topk_after c ~full ~corrupt ~nl ~topo ~ks tk =
  let delays = List.filter_map (fun k -> Option.map (fun d -> (k, d)) (reported_delay tk.text k)) ks in
  check c (List.length delays = List.length ks) "the report lacks a top-k line";
  if full then
    List.iter
      (fun k ->
        match tk.best k with
        | None -> check c false "top-%d: no answer" k
        | Some (set, delay) ->
          let delay = if corrupt && k = 2 then delay +. 1e-6 else delay in
          check c (well_formed nl set k) "top-%d: set is not %d distinct couplings" k k;
          let fresh = tk.evaluate_set topo set in
          check c
            (Float.abs (fresh -. delay) <= 1e-9)
            "top-%d: reported delay %.12f ns, scratch evaluation %.12f ns" k delay fresh;
          let header =
            Printf.sprintf "top-%d: estimated %.4f ns, evaluated %.4f ns" k (tk.estimate k) delay
          in
          check c
            (report_block tk.text k = Some (header, Report.set_lines nl set))
            "top-%d: the report does not show the chosen set and delay" k)
      ks;
  ( [
      ("quality.noise_coverage", mean (List.map (fun (_, d) -> tk.share d) delays));
      ( "quality.estimate_gap_ns",
        mean (List.map (fun (k, d) -> Float.abs (tk.estimate k -. d)) delays) );
    ],
    digest tk.text )

let enum_after c ~corrupt ~nl ~k results =
  let buf = Buffer.create 1024 in
  let shares = ref [] in
  List.iter
    (fun (r : Engine.result) ->
      for i = 1 to k do
        match r.Engine.res_per_k.(i) with
        | None -> check c false "top-%d: no choice" i
        | Some ch ->
          let obj = if corrupt && i = 2 then Float.nan else ch.Engine.ch_objective in
          check c (well_formed nl ch.Engine.ch_set i) "top-%d: malformed set" i;
          check c (Float.is_finite obj) "top-%d: objective %f is not finite" i obj;
          shares := (obj /. (r.Engine.res_noisy_delay -. r.Engine.res_noiseless_delay)) :: !shares;
          Buffer.add_string buf
            (Printf.sprintf "%d %s %h %d\n" i (Cs.hash_key ch.Engine.ch_set) obj ch.Engine.ch_sink)
      done)
    results;
  ([ ("quality.noise_coverage", mean !shares) ], digest (Buffer.contents buf))

let repair_after c ~corrupt ~lookup ~nl (r : Repair.report) repaired =
  check c r.Repair.rp_identical "repair: final state differs from a scratch re-analysis";
  (* the journal as it would be written, read back and replayed;
     [corrupt] flips whether its last trial was accepted *)
  let entries =
    if not corrupt then r.Repair.rp_journal
    else
      match List.rev r.Repair.rp_journal with
      | [] -> []
      | e :: rest -> List.rev ({ e with Repair.en_accepted = not e.Repair.en_accepted } :: rest)
  in
  let journal = List.map (fun e -> J.to_string (Repair.entry_json e)) entries in
  let replayed =
    List.map
      (fun line ->
        match Repair.entry_of_json ~lookup (J.of_string line) with
        | Ok e -> e
        | Error m -> failwith ("journal entry does not read back: " ^ m))
      journal
    |> Repair.replay nl
  in
  let final = Nf.print repaired in
  check c (Nf.print replayed = final) "repair: journal replay does not reproduce the final netlist";
  let recovered = r.Repair.rp_initial_delay -. r.Repair.rp_final_delay in
  ( [
      ( "quality.noise_coverage",
        recovered /. (r.Repair.rp_initial_delay -. r.Repair.rp_noiseless_delay) );
      ("quality.delay_recovered_ps", recovered *. 1000.);
    ],
    digest (String.concat "\n" (final :: journal)) )

let repair_layers (r : Repair.report) =
  let trials = List.length r.Repair.rp_journal in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 r.Repair.rp_journal in
  let hits = sum (fun e -> e.Repair.en_cache_hits) in
  let misses = sum (fun e -> e.Repair.en_cache_misses) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    ("repair.iterations", float_of_int r.Repair.rp_iterations);
    ("repair.trials", float_of_int trials);
    ("repair.accept_ratio", ratio (sum (fun e -> Bool.to_int e.Repair.en_accepted)) trials);
    ("repair.cache_hit_rate", ratio hits (hits + misses));
    ("repair.dirty_nets", float_of_int (sum (fun e -> e.Repair.en_dirty_nets)));
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                            *)
(* ------------------------------------------------------------------ *)

let peak_mb () =
  Option.fold ~none:0. ~some:(fun b -> float_of_int b /. 1048576.) (Tka_prof.Rss.peak_bytes ())

let counter name = Option.fold ~none:0 ~some:Metrics.Counter.value (Metrics.find_counter name)

(* Run [f] as the span [name], with the deltas of the library's own
   iterate counters across it (zero unless metrics are enabled). *)
let layer name f =
  let runs0 = counter "iterate.runs" and passes0 = counter "iterate.passes" in
  let v = Spans.with_span name f in
  (v, counter "iterate.runs" - runs0, counter "iterate.passes" - passes0)

(* Run [f]; when traced, with the library's own spans on, and graft
   those named in [rename] (library name, layer name) under the span
   open now. *)
let with_lib_spans ~traced rename f =
  if not traced then f ()
  else begin
    let module Tr = Tka_obs.Trace in
    Tr.clear ();
    Tr.set_enabled true;
    Tr.instant "perfbench.origin";
    let origin = Spans.now () in
    let v = Fun.protect ~finally:(fun () -> Tr.set_enabled false) f in
    Tr.spans ()
    |> List.filter_map (fun (sp : Tr.span) ->
           Option.map
             (fun name ->
               let start = Int64.add origin sp.Tr.sp_start_ns in
               (name, start, Int64.add start sp.Tr.sp_dur_ns))
             (List.assoc_opt sp.Tr.sp_name rename))
    |> List.sort (fun (_, a, x) (_, b, y) -> compare (a, y) (b, x))
    |> Spans.graft;
    Tr.clear ();
    v
  end

let sta_spans = [ ("sta.arrival_propagation", "sta") ]

(* The all-aggressor fixpoint, with its STA passes as child spans. *)
let fixpoint ~traced topo =
  Spans.with_span "fixpoint" (fun () ->
      with_lib_spans ~traced sta_spans (fun () -> Iterate.run topo))

let engine_span f =
  let a0 = Gc.allocated_bytes () in
  let v = Spans.with_span "engine" f in
  (v, Gc.allocated_bytes () -. a0)

let engine_layers (stats : Tka_topk.Ilist.stats list) alloc_bytes =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let cands = sum (fun s -> s.Tka_topk.Ilist.candidates) in
  let dominated = sum (fun s -> s.Tka_topk.Ilist.dominated) in
  [
    ("engine.candidate_sets", float_of_int cands);
    ("engine.dominance_checks", float_of_int (sum (fun s -> s.Tka_topk.Ilist.checks)));
    ("engine.prune_ratio", if cands = 0 then 0. else float_of_int dominated /. float_of_int cands);
    ("engine.alloc_mb", alloc_bytes /. 1048576.);
  ]

(* Set-up alone, as every run starts: parse the netlist text and
   build the topological view. *)
let setup path =
  let t0 = Spans.now () in
  ignore (Topo.create (Nf.parse_file ~lookup:Tka_cell.Default_lib.find path));
  Tka_obs.Clock.seconds_since t0

(* Run one workload on the netlist at [path], in the order the CLI
   runs it. The answer's quality figures, its digest and the cheap
   checks are computed after the timed part; [full] adds the costly
   top-k re-evaluation checks, and [corrupt] perturbs the answer before
   any check so that the self-test can see them fail. *)
let run w ~path ~traced ~full ~corrupt =
  if traced then Metrics.set_enabled true;
  let c = { attempted = 0; failures = [] } in
  let lookup = Tka_cell.Default_lib.find in
  let layers = ref [] in
  let after = ref (fun () -> ([], "")) in
  Spans.with_span "run" (fun () ->
      let nl = Spans.with_span "circuit.parse" (fun () -> Nf.parse_file ~lookup path) in
      let topo = Spans.with_span "circuit.topo" (fun () -> Topo.create nl) in
      match w.kind with
      | Topk_elim | Topk_add ->
        let fx = fixpoint ~traced topo in
        let ks = report_ks w.k in
        let rerank report =
          let rss0 = peak_mb () in
          let text, evals, passes = layer "rerank" report in
          (text, evals, passes, peak_mb () -. rss0)
        in
        let tk, (evals, passes, rss_growth), alloc =
          if w.kind = Topk_elim then begin
            let t, alloc = engine_span (fun () -> Elimination.compute ~fixpoint:fx ~k:w.k topo) in
            let text, evals, passes, rss = rerank (fun () -> Report.elimination nl t ~ks) in
            let noisy = Elimination.all_aggressor_delay t in
            ( {
                stats = [ t.Elimination.result.Engine.res_stats; t.Elimination.dual.Engine.res_stats ];
                text;
                share = (fun d -> (noisy -. d) /. (noisy -. Elimination.noiseless_delay t));
                estimate = Elimination.estimated_delay t;
                best = Elimination.best_choice t;
                evaluate_set = Elimination.evaluate_set;
              },
              (evals, passes, rss), alloc )
          end
          else begin
            let t, alloc = engine_span (fun () -> Addition.compute ~fixpoint:fx ~k:w.k topo) in
            let text, evals, passes, rss = rerank (fun () -> Report.addition nl t ~ks) in
            let noiseless = Addition.noiseless_delay t in
            ( {
                stats = [ t.Addition.result.Engine.res_stats ];
                text;
                share = (fun d -> (d -. noiseless) /. (Addition.all_aggressor_delay t -. noiseless));
                estimate = Addition.estimated_delay t;
                best = Addition.best_choice t;
                evaluate_set = Addition.evaluate_set;
              },
              (evals, passes, rss), alloc )
          end
        in
        if traced then begin
          let s = Spans.total "rerank" in
          layers :=
            (("fixpoint.passes", float_of_int fx.Iterate.iterations) :: engine_layers tk.stats alloc)
            @ [
                ("rerank.evaluations", float_of_int evals);
                ("rerank.passes", float_of_int passes);
                ("rerank.s_per_eval", if evals = 0 then 0. else s /. float_of_int evals);
                ("rerank.rss_growth_mb", rss_growth);
              ]
        end;
        after := fun () -> topk_after c ~full ~corrupt ~nl ~topo ~ks tk
      | Enum ->
        let fx = fixpoint ~traced topo in
        let config = Engine.default_config ~k:w.k in
        let results, alloc =
          engine_span (fun () ->
              List.map
                (fun mode -> Engine.compute ~config ~fixpoint:fx ~mode topo)
                [ Engine.Addition; Engine.Elimination ])
        in
        if traced then
          layers :=
            ("fixpoint.passes", float_of_int fx.Iterate.iterations)
            :: engine_layers (List.map (fun r -> r.Engine.res_stats) results) alloc;
        after := fun () -> enum_after c ~corrupt ~nl ~k:w.k results
      | Repair_loop ->
        (* recover all the noise: a target four edits never reach, so
           every circuit spends the whole budget and the work per run
           does not hinge on when a circuit meets its target *)
        let (report, repaired, _), _, passes =
          layer "repair" (fun () ->
              with_lib_spans ~traced
                (("iterate.run", "fixpoint") :: ("engine.compute", "engine") :: sta_spans)
                (fun () -> Repair.run ~k:w.k ~fix_k:1 ~budget:4 ~recover:1.0 ~dry_run:true nl))
        in
        if traced then
          layers := ("fixpoint.passes", float_of_int passes) :: repair_layers report;
        after := fun () -> repair_after c ~corrupt ~lookup ~nl report repaired);
  let peak = peak_mb () in
  let wall_s = Spans.total "run" in
  let t_check = Spans.now () in
  let quality, digest = !after () in
  let check_s = Tka_obs.Clock.seconds_since t_check in
  let layers =
    if not traced then []
    else
      let self = Spans.self_times () in
      let run_self = Option.value ~default:0. (List.assoc_opt "run" self) in
      [
        ("circuit.parse_s", Spans.total "circuit.parse");
        ("circuit.topo_s", Spans.total "circuit.topo");
        ("sta.s", Spans.total "sta");
        ("trace.span_coverage", 1. -. (run_self /. wall_s));
      ]
      @ List.map (fun n -> (n ^ ".s", Spans.total n)) [ "fixpoint"; "engine"; "rerank"; "repair" ]
      @ !layers
  in
  let floats l = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) l) in
  J.Obj
    [
      ("workload", J.Str w.name);
      ("wall_s", J.Float wall_s);
      ("setup_s", J.Float (Spans.total "circuit.parse" +. Spans.total "circuit.topo"));
      ("peak_rss_mb", J.Float peak);
      ("check_s", J.Float check_s);
      ("checks_attempted", J.Int c.attempted);
      ("failures", J.List (List.rev_map (fun m -> J.Str m) c.failures));
      ("quality", floats quality);
      ("digest", J.Str digest);
      ("layers", floats layers);
      ("self_s", floats (Spans.self_times ()));
    ]
