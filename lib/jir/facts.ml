(* Per-program compile facts.

   Everything the compilers and the fitness cache derive from a program
   alone — validation, static method sizes, call-site tables, leaf levels,
   constant-propagated methods, the content digest, baseline templates — is
   a pure function of an immutable program value, so it is computed once
   per program value and kept here.  A GA tune compiles the same handful of
   programs hundreds of times; the table makes each of those compiles pay
   only for what depends on the heuristic and the plan.

   A fact is declared by the layer that computes it, as a typed [key] with
   a build function; this module owns the lookup, the lifetime and the
   locking.  Method sizes are computed with the entry, since nearly every
   user needs them; every other fact is built on first use, once: a build
   runs under its key's lock, so two domains asking at once get one build
   and the same value.  A build that raises publishes nothing, so it raises
   again on the next use (a program that fails validation fails every
   time).

   Entries are held through an ephemeron keyed by the program value,
   compared physically, so an entry lives exactly as long as its program:
   a process that regenerates programs (the benchmark's set-up does, 15
   times per suite program) does not keep dead programs' facts.  There is
   one entry per program hash, the last program looked up with that hash,
   so a lookup reads no other entry's key.  Reading a key keeps it alive
   for the current major cycle, and regenerated copies of a program all
   hash alike: in a table that kept every copy and compared them on each
   lookup, as [Ephemeron.K1.Make] does, dead copies stayed reachable, and a
   set-up loop that regenerated five programs per round stopped completing
   major cycles (0.05 per round instead of 1.1) while its heap grew
   25-fold.  A dead program leaves an emptied ephemeron of a few words
   behind, so the table is reset when it reaches [max_programs] entries;
   holders keep the entries they already have. *)

module Metric = Inltune_obs.Metric

type binding = B : 'a Type.Id.t * 'a -> binding

type t = {
  program : Ir.program;
  sizes : int array;
  built : binding list Atomic.t;
}

type 'a key = {
  id : 'a Type.Id.t;
  build : t -> 'a;
  mu : Mutex.t;
  builds : Metric.handle;
}

let key ~name build =
  {
    id = Type.Id.make ();
    build;
    mu = Mutex.create ();
    builds = Metric.handle ("facts." ^ name ^ ".built");
  }

let find (type a) t (k : a key) : a option =
  let rec go : binding list -> a option = function
    | [] -> None
    | B (id, v) :: rest -> (
      match Type.Id.provably_equal k.id id with Some Type.Equal -> Some v | None -> go rest)
  in
  go (Atomic.get t.built)

let get t k =
  match find t k with
  | Some v -> v
  | None ->
    Mutex.protect k.mu (fun () ->
        match find t k with
        | Some v -> v
        | None ->
          let v = k.build t in
          Metric.bump k.builds;
          let rec publish () =
            let old = Atomic.get t.built in
            if not (Atomic.compare_and_set t.built old (B (k.id, v) :: old)) then publish ()
          in
          publish ();
          v)

let program t = t.program
let sizes t = t.sizes

(* Only success is kept: [check_exn] raises out of the build. *)
let validated = key ~name:"validated" (fun t -> Validate.check_exn t.program)
let validate t = get t validated

let digest_key =
  key ~name:"digest" (fun t -> Digest.to_hex (Digest.string (Text.to_string t.program)))

let digest t = get t digest_key

let create program =
  {
    program;
    sizes = Array.map Size.of_method program.Ir.methods;
    built = Atomic.make [];
  }

let max_programs = 4096

let programs : (int, (Ir.program, t) Ephemeron.K1.t) Hashtbl.t = Hashtbl.create 64
let programs_mu = Mutex.create ()

let of_program program =
  let h = Hashtbl.hash program in
  Mutex.protect programs_mu (fun () ->
      match Option.bind (Hashtbl.find_opt programs h) (fun e -> Ephemeron.K1.query e program) with
      | Some t -> t
      | None ->
        let t = create program in
        if Hashtbl.length programs >= max_programs then Hashtbl.reset programs;
        Hashtbl.replace programs h (Ephemeron.K1.make program t);
        t)
