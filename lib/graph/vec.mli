(** Growable arrays.

    A thin, allocation-friendly dynamic array used throughout the graph
    substrate for adjacency lists and node tables.  Elements live in a
    backing [array] that doubles on overflow; a dummy element fills the
    unused tail so the structure works for any element type. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty vector.  [dummy] fills unused slots of
    the backing array and is never observable through the API. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  @raise Invalid_argument when [i] is
    out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** Append one element, growing the backing array if needed. *)

val pop : 'a t -> 'a
(** Remove and return the last element.  @raise Invalid_argument on an
    empty vector. *)

val top : 'a t -> 'a
(** Last element without removing it. *)

val iter : ('a -> unit) -> 'a t -> unit

val exists : ('a -> bool) -> 'a t -> bool

val remove_first : ('a -> bool) -> 'a t -> bool
(** Remove the first element satisfying the predicate by swapping the last
    element into its slot (order is not preserved).  Returns [true] when an
    element was removed. *)

val to_array : 'a t -> 'a array

val copy : 'a t -> 'a t
