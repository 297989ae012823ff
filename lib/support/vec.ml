(* Growable array.  Used pervasively by the builder and the inliner, which
   assemble blocks and instruction sequences of unknown final length. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let make capacity dummy =
  if capacity < 0 then invalid_arg "Vec.make";
  { data = Array.make capacity dummy; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: out of bounds";
  t.data.(i) <- x

let ensure t n =
  let cap = Array.length t.data in
  if n > cap then begin
    let cap' = max n (max 8 (2 * cap)) in
    let data' = Array.make cap' t.data.(0) in
    Array.blit t.data 0 data' 0 t.len;
    t.data <- data'
  end

let push t x =
  if Array.length t.data = 0 then t.data <- Array.make 8 x else ensure t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let last t =
  if t.len = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.len - 1)

let append t other =
  for i = 0 to other.len - 1 do
    push t other.data.(i)
  done

let to_array t = Array.sub t.data 0 t.len

let of_array a = { data = Array.copy a; len = Array.length a }

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let clear t = t.len <- 0
