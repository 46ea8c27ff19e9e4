(** Immutable compressed-sparse-row snapshot of a {!Digraph.t}.

    All matching algorithms, traversals and partition refinement run on
    CSR snapshots: contiguous successor/predecessor slices make bounded
    BFS and counter refinement cache-friendly, and immutability makes it
    safe to share one snapshot across algorithms.  A snapshot remembers
    the [source_version] of the digraph it was taken from. *)

type t

type node = int

val of_digraph : Digraph.t -> t

val induced : t -> nodes:node array -> inner:int -> local:(node -> node) -> t
(** [induced g ~nodes ~inner ~local] renumbers part of [g], copying
    straight from its arrays: local node [i] is [nodes.(i)] of [g],
    with its label and attributes, and [local] maps each node of
    [nodes] back to its local number.  Only
    the first [inner] nodes keep their out-edges, all of them, so every
    successor of an inner node must be in [nodes]; the other nodes have
    none.  The source version is [g]'s.
    @raise Invalid_argument when [inner] is outside [0 .. length nodes]
    or a successor of an inner node has no local number. *)

val node_count : t -> int

val edge_count : t -> int

val source_version : t -> int

val label : t -> node -> Label.t

val attrs : t -> node -> Attrs.t

val out_degree : t -> node -> int

val in_degree : t -> node -> int

val iter_succ : t -> node -> (node -> unit) -> unit

val iter_pred : t -> node -> (node -> unit) -> unit

val enqueue_succ :
  t -> node -> mark:int array -> stamp:int -> queue:int array -> int -> int
(** [enqueue_succ t v ~mark ~stamp ~queue tail] is one expansion step of
    the bounded BFS in {!Distance}: every successor [w] of [v] with
    [mark.(w) <> stamp] is marked with [stamp] and written to [queue]
    from index [tail] on, in slice order.  Returns the new tail.  Reads
    the CSR arrays directly, with no closure per edge. *)

val enqueue_pred :
  t -> node -> mark:int array -> stamp:int -> queue:int array -> int -> int
(** {!enqueue_succ} over predecessors. *)

val succ_array : t -> node -> int array
(** Fresh array of successors (for tests and pretty-printing). *)

val fold_succ : t -> node -> ('a -> node -> 'a) -> 'a -> 'a

val has_edge : t -> node -> node -> bool
(** O(out-degree). *)

val iter_nodes : t -> (node -> unit) -> unit

val iter_edges : t -> (node -> node -> unit) -> unit

val nodes_with_label : t -> Label.t -> node list
(** All nodes carrying the given label (computed once per snapshot and
    memoised; the common entry point for candidate-set construction). *)

val patched : t -> source_version:int -> added:(node * node) list -> removed:(node * node) list -> t
(** [patched t ~source_version ~added ~removed] is a new snapshot with
    the net edge delta applied: all edges of [t] except [removed], plus
    [added].  The node tables (labels, attributes, label buckets) are
    shared physically with [t] — this is the copy-on-write epoch advance
    behind {!Snapshot.advance}, O(|V| + |E| + |Δ|) without re-reading the
    digraph (yet slower than {!of_digraph} on small batches: bench
    EXP-A7).  Preconditions (checked where cheap): added edges are
    absent from [t], removed edges present, no duplicates, endpoints in
    range, and the delta must not create a new node.
    @raise Invalid_argument when a precondition is violated. *)

val to_digraph : t -> Digraph.t
(** Rebuild a mutable graph with identical structure. *)
