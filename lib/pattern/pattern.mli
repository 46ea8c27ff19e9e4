open Expfinder_graph

(** Pattern queries.

    A pattern query [Q] (Fig. 1(a) of the paper) is a small directed
    graph: each node carries a label requirement and a search-condition
    predicate; each edge carries a length bound [k >= 1] or [*]
    (unbounded).  An edge [(u, u')] with bound [k] requires a nonempty
    path of length [<= k] in the data graph; graph simulation is the
    special case where every bound is [1].  One node is designated the
    {e output node} — the one whose matches are returned as experts. *)

type pnode = int
(** Pattern nodes are dense integers [0 .. size-1]. *)

type bound = Bounded of int | Unbounded

type node_spec = {
  name : string;  (** display name, e.g. "SA" *)
  label : Label.t option;  (** [None] is a wildcard: any label matches *)
  pred : Predicate.t;
}

type t

val make :
  nodes:node_spec array ->
  edges:(pnode * pnode * bound) list ->
  output:pnode ->
  (t, string) result
(** Validation: at least one node; endpoints in range; no self-loop
    edges; bounds [>= 1]; at most one edge per ordered pair; [output] in
    range. *)

val make_exn :
  nodes:node_spec array -> edges:(pnode * pnode * bound) list -> output:pnode -> t
(** @raise Invalid_argument when [make] would return [Error]. *)

val size : t -> int
(** Number of pattern nodes. *)

val edge_count : t -> int

val node_spec : t -> pnode -> node_spec

val name : t -> pnode -> string

val output : t -> pnode

val edges : t -> (pnode * pnode * bound) list

val out_edges : t -> pnode -> (pnode * bound) list
(** Successors of [u] with their bounds. *)

val in_edges : t -> pnode -> (pnode * bound) list

val bound_of : t -> pnode -> pnode -> bound option

val max_bound : t -> int option
(** Largest finite bound; [None] when the pattern has no finite-bound
    edges.  Unbounded edges are ignored. *)

val has_unbounded_edge : t -> bool

val is_simulation_pattern : t -> bool
(** Every bound is exactly 1 (plain graph simulation). *)

val to_simulation : t -> t
(** Copy with every bound replaced by 1 (for baselines). *)

val matches_node : t -> pnode -> Label.t -> Attrs.t -> bool
(** Does a data node with this label and these attributes satisfy pattern
    node [u]'s label requirement and predicate? *)

val pnode_of_name : t -> string -> pnode option

val equal : t -> t -> bool

val fingerprint : t -> string
(** Stable digest of the full pattern structure, used as a cache key.
    Computed once when the pattern is built ({!make} is the only
    constructor), so reading it is O(1). *)

val pp : Format.formatter -> t -> unit
