(* In-memory spans recorded by the benchmark around each layer call.

   A span has a name, a start and an end on the monotonic clock, the id
   of the span that was open when it started (its parent, 0 for the
   root) and the run id shared by every span of one workload run. Spans
   are kept in memory and written out once the run ends, so recording
   costs a clock read and a cons per layer call. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let run_id = ref ""
let recorded : span list ref = ref []
let open_ids = ref []
let next_id = ref 1

let now = Tka_obs.Clock.now_ns

let current_parent () = match !open_ids with p :: _ -> p | [] -> 0

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = current_parent () in
  open_ids := id :: !open_ids;
  let start_ns = now () in
  let finish () =
    open_ids := List.tl !open_ids;
    recorded := { id; parent; name; start_ns; stop_ns = now () } :: !recorded
  in
  Fun.protect ~finally:finish f

(* Add spans measured elsewhere (the library's own), given as
   [(name, start_ns, stop_ns)] on one time base and sorted by start,
   enclosing spans first. Each goes under the innermost of them that
   contains it, or else under the span open now. *)
let graft spans =
  let outer = current_parent () in
  let stack = ref [] in
  List.iter
    (fun (name, start_ns, stop_ns) ->
      while match !stack with (_, stop) :: _ -> stop < stop_ns | [] -> false do
        stack := List.tl !stack
      done;
      let parent = match !stack with (p, _) :: _ -> p | [] -> outer in
      let id = !next_id in
      incr next_id;
      recorded := { id; parent; name; start_ns; stop_ns } :: !recorded;
      stack := (id, stop_ns) :: !stack)
    spans

let all () = List.rev !recorded
let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* Total seconds of every span with this name. *)
let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0. !recorded

(* Self time per span name: a span's duration minus the part its direct
   children cover (children never overlap: the run is sequential). *)
let self_times () =
  let child_s = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt child_s s.parent) in
      Hashtbl.replace child_s s.parent (prev +. dur s))
    !recorded;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt child_s s.id) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (prev +. self))
    (all ());
  List.sort compare (Hashtbl.fold (fun n v acc -> (n, v) :: acc) by_name [])

let to_json () =
  let module J = Tka_obs.Jsonx in
  J.Obj
    [
      ("run_id", J.Str !run_id);
      ( "spans",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("id", J.Int s.id);
                   ("parent", J.Int s.parent);
                   ("name", J.Str s.name);
                   ("start_ns", J.Str (Int64.to_string s.start_ns));
                   ("end_ns", J.Str (Int64.to_string s.stop_ns));
                 ])
             (all ())) );
      ( "self_s",
        J.Obj (List.map (fun (n, v) -> (n, J.Float v)) (self_times ())) );
    ]
