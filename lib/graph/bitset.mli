(** Dense fixed-capacity bitsets over integers [0 .. capacity-1].

    Used for match-relation membership, reachability sets and visited
    marks; all operations are O(1) or O(capacity/64). *)

type t

val create : int -> t
(** [create n] is an empty set with capacity [n] (all bits clear). *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit
(** Clear all bits. *)

val cardinal : t -> int
(** Number of set bits: a constant-time popcount per backing word, so
    the cost depends on the capacity, not on how many bits are set. *)

val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate set bits in increasing order.  Each bit's index costs a
    fixed six-step search, whatever its position in the word; {!fold}
    and {!to_list} are built on it. *)

val iter_xor : (int -> unit) -> t -> t -> unit
(** [iter_xor f a b] calls [f] on every element of exactly one of [a]
    and [b], in increasing order: one pass over the XOR of their words,
    so the cost is the word count plus the size of the difference.
    Capacities must match. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list
(** Set bits in increasing order. *)

val copy : t -> t

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src].  Capacities must match. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] sets [dst := dst ∩ src].  Capacities must match. *)

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] when every element of [a] is in [b]. *)
