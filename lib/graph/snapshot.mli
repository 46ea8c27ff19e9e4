(** Immutable, identity-stamped epoch snapshots.

    A snapshot is the unit of query evaluation: every matching algorithm
    — simulation, bounded simulation, candidate extraction, the planner,
    the ball index — reads from a snapshot, never from the mutable
    {!Digraph.t}.  A snapshot wraps a {!Csr.t} (forward + reverse
    adjacency in contiguous slices) and stamps it with a globally unique
    {!identity} [(graph_id, epoch)]:

    - [graph_id] is the process-unique id of the source graph (fresh per
      {!Digraph.t}, fresh per derived graph such as a compressed
      quotient), so snapshots of a graph and its copy never alias;
    - [epoch] is the digraph version the snapshot was taken at.

    Snapshots are immutable, so an in-flight reader simply keeps the
    epoch it pinned while the engine publishes the next one, which it
    builds with {!of_digraph}.  {!advance} is a copy-on-write
    alternative that patches the adjacency with a net edge delta; it is
    slower than a rebuild on the update batches measured so far (bench
    EXP-A7), and no library code calls it.

    Caches and derived indexes key off the {!identity} value, not a bare
    version int. *)

type node = int

type identity = private { graph_id : int; epoch : int }
(** A value, usable directly as a hash/comparison key. *)

val identity_equal : identity -> identity -> bool

val compare_identity : identity -> identity -> int

val pp_identity : Format.formatter -> identity -> unit

type t

val of_digraph : Digraph.t -> t
(** Full snapshot build: O(|V| + |E|) scan of the digraph.  The identity
    is [(Digraph.graph_id g, Digraph.version g)]. *)

val of_csr : ?graph_id:int -> Csr.t -> t
(** Wrap an existing CSR.  Without [?graph_id] a fresh id is minted —
    use this for derived graphs (e.g. compressed quotients) that are not
    epochs of any digraph.  The epoch is the CSR's [source_version]. *)

val advance : t -> version:int -> added:(node * node) list -> removed:(node * node) list -> t
(** Copy-on-write epoch advance: same [graph_id], epoch [version], edges
    patched by the net delta (see {!Csr.patched} for preconditions).
    Node tables and the label histogram are shared with [t], which
    remains fully usable — readers holding it are unaffected. *)

val id : t -> identity

val graph_id : t -> int

val epoch : t -> int

val pp_id : Format.formatter -> t -> unit

val csr : t -> Csr.t
(** The underlying storage, for Csr-level helpers ({!Scc}, {!Traversal},
    {!Bisimulation}) that do not need the identity. *)

(** {2 Read interface} *)

val node_count : t -> int

val edge_count : t -> int

val label : t -> node -> Label.t

val attrs : t -> node -> Attrs.t

val out_degree : t -> node -> int

val in_degree : t -> node -> int

val iter_succ : t -> node -> (node -> unit) -> unit

val iter_pred : t -> node -> (node -> unit) -> unit

val fold_succ : t -> node -> ('a -> node -> 'a) -> 'a -> 'a

val fold_pred : t -> node -> ('a -> node -> 'a) -> 'a -> 'a

val exists_succ : t -> node -> (node -> bool) -> bool

val has_edge : t -> node -> node -> bool

val iter_nodes : t -> (node -> unit) -> unit

val iter_edges : t -> (node -> node -> unit) -> unit

val nodes_with_label : t -> Label.t -> node list
(** Memoised label buckets (shared across COW epochs via the CSR). *)

(** {2 Cached statistics} *)

val label_count : t -> Label.t -> int
(** O(1) after the first call: size of the label's bucket, from a
    histogram computed once per graph (shared across COW epochs).  The
    planner's selectivity estimates read population sizes here. *)

val max_out_degree : t -> int
(** Computed once per epoch. *)

val to_digraph : t -> Digraph.t
(** Rebuild a mutable graph with identical structure (fresh id). *)
