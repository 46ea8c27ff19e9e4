(** Bounded-hop distance primitives.

    Bounded simulation repeatedly asks "which nodes lie within [k] hops of
    [v]?" (forward balls) and "which nodes reach [w] within [k] hops?"
    (reverse balls).  These run in O(ball size), not O(|G|), over two
    flat int arrays per [scratch]: a mark array, where each search
    writes its own stamp (so nothing is reset between searches), and a
    queue that is both the frontier and the list of nodes reached.
    Distances are the levels of that queue, told apart by where each
    level ends.  A [scratch] can be reused across millions of calls,
    also after a callback raised out of a search.

    There is one BFS.  It runs on a {!Snapshot.t} and expands a node
    straight from the CSR offset and target arrays ({!Csr.enqueue_succ},
    {!Csr.enqueue_pred}), with no closure per edge.  Batch evaluation
    and incremental maintenance both read it: maintenance walks the
    snapshots of the epochs before and after an update batch. *)

type scratch
(** Reusable working memory (mark array + queue), sized by node count:
    a scratch made for a snapshot serves any snapshot with no more
    nodes. *)

val make_scratch : Snapshot.t -> scratch

val visits : scratch -> int
(** Nodes reached by every search run on this scratch so far — the
    BFS unit of {!Work}.  A search counts each node it puts in its
    queue once: every node it reports, and also, when a callback
    raises, the nodes already queued but not yet reported. *)

val ball : scratch -> Snapshot.t -> int -> int -> (int -> int -> unit) -> unit
(** [ball s g v k f] calls [f w d] for every [w] with a nonempty path of
    length [d <= k] from [v] ([v] itself is reported only when it lies
    on a cycle of length [<= k]), in BFS order.  Distances are shortest
    nonempty path lengths.
    @raise Invalid_argument when [k < 0] or [s] has fewer nodes than
    [g]. *)

val reverse_ball : scratch -> Snapshot.t -> int -> int -> (int -> int -> unit) -> unit
(** Same over reversed edges: every [w] with a nonempty path of length
    [<= k] {e to} [v]. *)

val exists_within : scratch -> Snapshot.t -> int -> int -> (int -> bool) -> bool
(** [exists_within s g v k p]: is there a node [w] with a nonempty path
    [v ->* w] of length [<= k] and [p w]?  Short-circuits. *)

val distances_from : Snapshot.t -> int -> int array
(** Unbounded single-source hop distances ([-1] when unreachable); the
    source's own distance is [0]. *)

val eccentricity_bound : Snapshot.t -> int
(** A safe upper bound on any finite hop distance (the node count). *)
