(* Host-speed calibration: a fixed piece of work that shares no code
   with tka, timed in its own process. The harness runs it between the
   workload's samples and scales each sample by how long this took next
   to it, so that a change in the host's speed over minutes does not
   read as a change in the program. The work mixes what tka's runs do:
   hashtable inserts and lookups, float arithmetic, list and array
   allocation that reaches the major heap, and sorting.

   Prints its wall time in seconds. Never change it in a commit whose
   speed is compared with its parent's. *)

let work () =
  let acc = ref 0. in
  let st = ref 7919 in
  let next () =
    st := (!st * 1103515245 + 12345) land 0x3fffffff;
    !st
  in
  for round = 1 to 3 do
    let n = 50_000 in
    let h = Hashtbl.create 1024 in
    for i = 0 to n - 1 do
      Hashtbl.replace h (next () mod (n * 4)) (float_of_int (i + round) *. 0.5)
    done;
    for _ = 1 to n do
      match Hashtbl.find_opt h (next () mod (n * 4)) with
      | Some v -> acc := !acc +. v
      | None -> ()
    done;
    let pairs = Hashtbl.fold (fun k v l -> (float_of_int k, v) :: l) h [] in
    let a = Array.of_list pairs in
    Array.sort compare a;
    let rows = List.map (fun (x, y) -> [| x; y; x *. y |]) (Array.to_list a) in
    List.iter (fun r -> acc := !acc +. sqrt (abs_float r.(2))) rows;
    let rec pow k x = if k = 0 then x else pow (k - 1) ((x *. 1.0000001) +. 1e-9) in
    for _ = 1 to 2000 do
      acc := !acc +. pow 100 0.5
    done
  done;
  !acc

let () =
  let t0 = Unix.gettimeofday () in
  let acc = work () in
  let dt = Unix.gettimeofday () -. t0 in
  (* The checksum keeps the work from being optimised away. *)
  Printf.printf "%.9f %.6g\n" dt acc
