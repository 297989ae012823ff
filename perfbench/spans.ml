(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark's own code around calls into each
   layer's public functions; nothing inside the library is instrumented.  A
   span carries its name, the span that caused it (0 = root), the domain it
   ran on, wall-clock start and end, and a few numeric attributes.  Spans
   stay in memory (mutex-guarded: grid cells record from pool workers) and
   are written out as JSON lines when the benchmark ends. *)

module Json = Inltune_obs.Json

type t = {
  id : int;
  parent : int;
  name : string;
  dom : int;
  t0 : float;
  t1 : float;
  attrs : (string * float) list;
}

let now = Unix.gettimeofday
let on = Atomic.make false
let next = Atomic.make 1
let mu = Mutex.create ()
let recorded : t list ref = ref []

let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b
let fresh_id () = Atomic.fetch_and_add next 1

let add s =
  if enabled () then begin
    Mutex.lock mu;
    recorded := s :: !recorded;
    Mutex.unlock mu
  end

(* Record a span timed by the caller. *)
let record ?(parent = 0) ?(attrs = []) name t0 t1 =
  add { id = fresh_id (); parent; name; dom = (Domain.self () :> int); t0; t1; attrs }

(* [with_span ~parent name f] runs [f id] and records the span [id] around
   it; [attrs] is computed from the result after the clock stops. *)
let with_span ?(parent = 0) ?(attrs = fun _ -> []) name f =
  let id = fresh_id () in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  add { id; parent; name; dom = (Domain.self () :> int); t0; t1; attrs = attrs r };
  r

let dur s = s.t1 -. s.t0

(* Every recorded span, oldest first. *)
let all () =
  Mutex.lock mu;
  let l = List.rev !recorded in
  Mutex.unlock mu;
  l

let named name = List.filter (fun s -> s.name = name) (all ())
let total name = List.fold_left (fun acc s -> acc +. dur s) 0.0 (named name)
let attr s k = Option.value ~default:0.0 (List.assoc_opt k s.attrs)

(* Length of the union of the given spans' intervals: the wall time during
   which at least one of them was running, whatever the domain. *)
let covered spans =
  let iv = List.sort compare (List.map (fun s -> (s.t0, s.t1)) spans) in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None iv

let to_json s =
  Json.Obj
    ([
       ("id", Json.Num (Float.of_int s.id));
       ("parent", Json.Num (Float.of_int s.parent));
       ("name", Json.Str s.name);
       ("dom", Json.Num (Float.of_int s.dom));
       ("t0", Json.Num s.t0);
       ("t1", Json.Num s.t1);
     ]
    @ List.map (fun (k, v) -> (k, Json.Num v)) s.attrs)

let write path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Json.encode (to_json s) ^ "\n")) (all ());
  close_out oc
