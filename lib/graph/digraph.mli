(** Mutable directed graph with labeled, attributed nodes.

    This is the data-graph model of the paper: each node denotes a person
    with a field label (SA, SD, BA, ...) and an attribute record; each
    directed edge denotes a collaboration.  Edges are simple (at most one
    edge per ordered pair) and unweighted; path lengths are hop counts.

    The structure supports the update operations the ExpFinder demo
    exercises — node insertion, edge insertion and edge deletion — and
    carries a monotonically increasing [version] so caches and compressed
    graphs can detect staleness.  Query evaluation does not run on this
    structure directly; build a {!Csr.t} snapshot first. *)

type t

type node = int
(** Nodes are dense integers [0 .. node_count - 1]. *)

val create : ?capacity:int -> unit -> t

val node_count : t -> int

val edge_count : t -> int

val version : t -> int
(** Bumped by every mutating operation. *)

val graph_id : t -> int
(** Process-unique identity of this graph, fresh on {!create} and {!copy}
    (see {!Graph_id}).  [(graph_id, version)] is the
    identity of the graph's current epoch: snapshots and caches key off
    the pair, so a graph and its copy — both starting at version 0 —
    can never alias. *)

val add_node : t -> ?attrs:Attrs.t -> Label.t -> node
(** Append a fresh node and return its id. *)

val label : t -> node -> Label.t

val attrs : t -> node -> Attrs.t

val set_attrs : t -> node -> Attrs.t -> unit

val has_edge : t -> node -> node -> bool
(** O(out-degree of the source). *)

val add_edge : t -> node -> node -> bool
(** [add_edge g u v] inserts the edge [u -> v]; returns [false] when the
    edge already exists (the graph is unchanged).  Self-loops are
    allowed — compressed graphs need them when an equivalence class
    contains internal edges.  @raise Invalid_argument on an unknown
    endpoint. *)

val remove_edge : t -> node -> node -> bool
(** Returns [false] when the edge was absent. *)

val out_degree : t -> node -> int

val in_degree : t -> node -> int

val iter_succ : t -> node -> (node -> unit) -> unit

val iter_nodes : t -> (node -> unit) -> unit

val iter_edges : t -> (node -> node -> unit) -> unit

val copy : t -> t
(** Deep copy sharing no mutable state; the copy starts at version 0 but
    carries a fresh {!graph_id}, so its epochs never alias the
    original's. *)

val equal_structure : t -> t -> bool
(** Same node count, labels, attributes and edge sets. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: node/edge counts plus the out-degree distribution
    (max and average). *)
