(* Benchmark driver, one workload step per process:

     tkabench gen --workload W --seed N --out FILE [--circuit NAME]
     tkabench setup --workload W --netlist FILE
     tkabench run --workload W --netlist FILE [--check] [--corrupt]
                  [--trace-out FILE]

   [gen] writes the workload's circuit (its Table-2 spec, spec seed
   offset by N) as tka netlist text. [setup] times parsing it and
   building its topological view, as every run starts. [run] runs the
   workload once on that netlist at jobs=1 and prints one JSON object:
   wall time, set-up time, peak RSS, the answer's quality and digest,
   and the output checks ([--check] adds the costly ones); with
   [--trace-out] also the per-layer figures, and the spans written to
   FILE. *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 0 and out = ref "" and circuit = ref "" in
  let netlist = ref "" and check = ref false and corrupt = ref false in
  let trace_out = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N circuit seed offset");
      ("--out", Arg.Set_string out, "FILE netlist to write");
      ("--circuit", Arg.Set_string circuit, "NAME circuit instead of the workload's");
      ("--netlist", Arg.Set_string netlist, "FILE netlist to run on");
      ("--check", Arg.Set check, " also re-evaluate every top-k answer from scratch");
      ("--corrupt", Arg.Set corrupt, " corrupt the answer before checking");
      ("--trace-out", Arg.Set_string trace_out, "FILE traced run, spans written here");
    ]
  in
  let usage = "tkabench (gen|setup|run) [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> raise (Arg.Bad a)) usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "tkabench: unknown workload %S\n" !workload;
      exit 2
  in
  Tka_parallel.Pool.set_default_jobs 1;
  match cmd with
  | "gen" ->
    let circuit = if !circuit = "" then w.Workload.circuit else !circuit in
    Tka_circuit.Netlist_format.write_file (Workload.generate ~circuit ~seed:!seed) !out
  | "run" ->
    let traced = !trace_out <> "" in
    Spans.run_id := Printf.sprintf "%s:%d" w.Workload.name (Unix.getpid ());
    let result = Workload.run w ~path:!netlist ~traced ~full:!check ~corrupt:!corrupt in
    if traced then Tka_obs.Jsonx.write_file !trace_out (Spans.to_json ());
    print_endline (Tka_obs.Jsonx.to_string result)
  | "setup" ->
    print_endline
      (Tka_obs.Jsonx.to_string (Tka_obs.Jsonx.Obj [ ("setup_s", Tka_obs.Jsonx.Float (Workload.setup !netlist)) ]))
  | _ ->
    prerr_endline usage;
    exit 2
