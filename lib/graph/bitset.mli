(** Dense fixed-capacity bitsets over integers [0 .. capacity-1].

    Used for match-relation membership, reachability sets and visited
    marks; all operations are O(1) or O(capacity/64). *)

type t

val create : int -> t
(** [create n] is an empty set with capacity [n] (all bits clear). *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val cardinal : t -> int
(** Number of set bits: a constant-time popcount per backing word, so
    the cost depends on the capacity, not on how many bits are set. *)

val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate set bits in increasing order.  Each bit's index costs a
    fixed six-step search, whatever its position in the word; {!to_list}
    is built on it. *)

val iter_xor : (int -> unit) -> t -> t -> unit
(** [iter_xor f a b] calls [f] on every element of exactly one of [a]
    and [b], in increasing order: one pass over the XOR of their words,
    so the cost is the word count plus the size of the difference.
    Capacities must match. *)

val to_list : t -> int list
(** Set bits in increasing order. *)

val copy : t -> t

val equal : t -> t -> bool
