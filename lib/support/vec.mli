(** Growable arrays with amortized O(1) push. *)

type 'a t

(** Fresh empty vector. *)
val create : unit -> 'a t

(** [make capacity dummy] pre-allocates room for [capacity] elements. *)
val make : int -> 'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Bounds-checked access; raise [Invalid_argument] outside [0, length). *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

(** Remove and return the last element. *)
val pop : 'a t -> 'a

(** Last element without removing it. *)
val last : 'a t -> 'a

(** [append t other] pushes all of [other] onto [t]. *)
val append : 'a t -> 'a t -> unit

val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val clear : 'a t -> unit
