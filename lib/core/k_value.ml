type curve_point = { kv_k : int; kv_delay : float; kv_fraction : float }

type recommendation = {
  kv_coverage_k : int option;
  kv_knee_k : int;
  kv_curve : curve_point list;
}

let sample_ks ~kmax =
  List.init kmax (fun i -> i + 1)
  |> List.filter (fun k -> k <= 10 || k mod 5 = 0 || k = kmax)

let knee_of_curve pts =
  match pts with
  | [] | [ _ ] -> invalid_arg "K_value.knee_of_curve: need at least two points"
  | (x0, y0) :: _ ->
    let xn, yn =
      match List.rev pts with
      | (x, y) :: _ -> (x, y)
      | [] -> assert false
    in
    let fx0 = float_of_int x0 and fxn = float_of_int xn in
    let span_x = Float.max 1e-9 (fxn -. fx0) in
    let chord x = y0 +. ((yn -. y0) *. (float_of_int x -. fx0) /. span_x) in
    let best =
      List.fold_left
        (fun (bk, bd) (x, y) ->
          let d = Float.abs (y -. chord x) in
          if d > bd then (x, d) else (bk, bd))
        (x0, Float.neg_infinity) pts
    in
    fst best

let build ~total ~fraction_of curve =
  List.map
    (fun (k, _, d) -> { kv_k = k; kv_delay = d; kv_fraction = fraction_of total d })
    curve

let recommend ~coverage pts =
  let coverage_k =
    List.find_opt (fun p -> p.kv_fraction >= coverage) pts
    |> Option.map (fun p -> p.kv_k)
  in
  let knee_k =
    match pts with
    | [] -> 1
    | [ p ] -> p.kv_k
    | _ -> knee_of_curve (List.map (fun p -> (p.kv_k, p.kv_fraction)) pts)
  in
  { kv_coverage_k = coverage_k; kv_knee_k = knee_k; kv_curve = pts }

let addition ?(coverage = 0.8) ?(kmax = 30) topo =
  let t = Addition.compute ~k:kmax topo in
  let base = Addition.noiseless_delay t in
  let noisy = Addition.all_aggressor_delay t in
  let total = Float.max 1e-12 (noisy -. base) in
  let curve = Addition.evaluate_curve t ~ks:(sample_ks ~kmax) in
  recommend ~coverage
    (build ~total ~fraction_of:(fun total d -> (d -. base) /. total) curve)

let elimination ?(coverage = 0.8) ?(kmax = 30) topo =
  let t = Elimination.compute ~k:kmax topo in
  let noisy = Elimination.all_aggressor_delay t in
  let total = Float.max 1e-12 (noisy -. Elimination.noiseless_delay t) in
  let curve = Elimination.evaluate_curve t ~ks:(sample_ks ~kmax) in
  recommend ~coverage
    (build ~total ~fraction_of:(fun total d -> (noisy -. d) /. total) curve)
