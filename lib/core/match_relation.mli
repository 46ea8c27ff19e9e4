open Expfinder_graph
open Expfinder_pattern

(** The match relation M(Q,G).

    A relation between pattern nodes and data nodes, stored as one dense
    bitset of data nodes per pattern node.  The relation computed by the
    matching algorithms is the {e maximum} (bounded) simulation; by
    definition it is nonempty for every pattern node, or empty for all of
    them ("no match"). *)

type t

val create : pattern_size:int -> graph_size:int -> t
(** Empty relation. *)

val pattern_size : t -> int

val graph_size : t -> int

val mem : t -> int -> int -> bool
(** [mem m u v]: does pattern node [u] match data node [v]? *)

val add : t -> int -> int -> unit

val remove : t -> int -> int -> unit

val matches : t -> int -> int list
(** Data nodes matching pattern node [u], ascending. *)

val matches_set : t -> int -> Bitset.t
(** The underlying bitset (shared, do not mutate). *)

val count : t -> int -> int
(** Number of matches of pattern node [u]. *)

val total : t -> int
(** Total number of (u,v) pairs. *)

val is_total : t -> bool
(** Every pattern node has at least one match. *)

val clear : t -> unit
(** Make the relation empty (used when some pattern node lost all its
    matches: the paper's semantics then make the whole result empty). *)

val pairs : t -> (int * int) list
(** All (pattern node, data node) pairs, lexicographic. *)

val of_pairs : pattern_size:int -> graph_size:int -> (int * int) list -> t

val digest : t -> string
(** Hex MD5 of the canonical content (pattern size plus all pairs in
    lexicographic order): stable across processes and independent of
    [graph_size] padding.  The answer digest recorded in the query log
    and re-checked by [expfinder replay].  The text is written straight
    from the bitsets into one buffer; O(pairs + pattern size).  The
    serving path does not call this on a cache hit: the query-result
    cache memoises it per entry
    ({!Expfinder_storage.Cache.digest}), which is safe because a stored
    relation is never mutated. *)

val copy : t -> t

val equal : t -> t -> bool

val pp : Pattern.t -> Format.formatter -> t -> unit
(** Named rendering: [{SA -> [3; 7]; SD -> [1; 2; 5]}]. *)
