(** The read interface the bounded BFS of {!Distance} runs on.

    {!Snapshot} (immutable epoch snapshots, the home of all evaluation),
    {!Csr} (the raw compressed-sparse-row storage a snapshot wraps) and
    {!Digraph} (live mutable graphs) all satisfy it.  Only {!Distance}
    is functorised over it: incremental maintenance seeds and grows its
    affected area by walking the live digraph, so a small update pays no
    snapshot rebuild, and then refines that area with the dense kernels
    on an area-local snapshot ({!Csr.induced}).  Everything else takes a
    {!Snapshot.t} directly. *)

module type GRAPH = sig
  type t

  val node_count : t -> int

  val iter_succ : t -> int -> (int -> unit) -> unit

  val iter_pred : t -> int -> (int -> unit) -> unit
end
