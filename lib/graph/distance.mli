(** Bounded-hop distance primitives.

    Bounded simulation repeatedly asks "which nodes lie within [k] hops of
    [v]?" (forward balls) and "which nodes reach [w] within [k] hops?"
    (reverse balls).  These run in O(ball size), not O(|G|): the scratch
    distance array is reset after each call by re-walking the visited
    list, so a [scratch] can be reused across millions of calls.

    The implementation is a functor over {!Graph_intf.GRAPH}: batch
    evaluation uses the {!Snapshot} instance included at the top level,
    while incremental maintenance instantiates {!Make} with {!Digraph}
    to avoid snapshot rebuilds. *)

module Make (G : Graph_intf.GRAPH) : sig
  type scratch
  (** Reusable per-graph working memory (distance array + queue). *)

  val make_scratch : G.t -> scratch

  val visits : scratch -> int
  (** Nodes reached by every search run on this scratch so far (each
      search counts each node it reaches once) — the BFS unit of
      {!Work}. *)

  val ball : scratch -> G.t -> int -> int -> (int -> int -> unit) -> unit
  (** [ball s g v k f] calls [f w d] for every [w] with a nonempty path of
      length [d <= k] from [v] ([v] itself is reported only when it lies
      on a cycle of length [<= k]).  Distances are shortest nonempty path
      lengths. *)

  val reverse_ball : scratch -> G.t -> int -> int -> (int -> int -> unit) -> unit
  (** Same over reversed edges: every [w] with a nonempty path of length
      [<= k] {e to} [v]. *)

  val exists_within : scratch -> G.t -> int -> int -> (int -> bool) -> bool
  (** [exists_within s g v k p]: is there a node [w] with a nonempty path
      [v ->* w] of length [<= k] and [p w]?  Short-circuits. *)

  val distances_from : G.t -> int -> int array
  (** Unbounded single-source hop distances ([-1] when unreachable); the
      source's own distance is [0]. *)

  val eccentricity_bound : G.t -> int
  (** A safe upper bound on any finite hop distance (the node count). *)
end

(* The Snapshot instance, included for the common case. *)

type scratch

val make_scratch : Snapshot.t -> scratch

val visits : scratch -> int

val ball : scratch -> Snapshot.t -> int -> int -> (int -> int -> unit) -> unit

val reverse_ball : scratch -> Snapshot.t -> int -> int -> (int -> int -> unit) -> unit

val exists_within : scratch -> Snapshot.t -> int -> int -> (int -> bool) -> bool

val distances_from : Snapshot.t -> int -> int array

val eccentricity_bound : Snapshot.t -> int
