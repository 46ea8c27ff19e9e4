open Expfinder_graph
open Expfinder_pattern

(** Area-restricted greatest-fixpoint refinement, generic over the graph
    representation.

    Used by incremental maintenance: only pairs on nodes of [area] may be
    removed; everything else is frozen and trusted.  Counters exist only
    for area nodes, so the cost is proportional to the area (and, for
    bounded patterns, to the dependency balls of its nodes), never to
    |G|.  Batch evaluation keeps its dense engines in {!Simulation} and
    {!Bounded_sim}.

    [?work] is charged as the refinement goes — adjacency entries
    scanned by {!simulation}, BFS node visits by {!bounded}, the same
    units as the dense engines — and a meter with a limit stops the
    refinement with {!Work.Exhausted} once the limit is passed. *)

module Make (G : Graph_intf.GRAPH) : sig
  val simulation :
    ?work:Work.t ->
    Pattern.t ->
    G.t ->
    initial:Match_relation.t ->
    area:Bitset.t ->
    Match_relation.t
  (** Simulation constraints (bounds ignored; caller dispatches). *)

  val bounded :
    ?work:Work.t ->
    Pattern.t ->
    G.t ->
    initial:Match_relation.t ->
    area:Bitset.t ->
    Match_relation.t
  (** Bounded-simulation constraints via per-pair ball counters.
      @raise Invalid_argument on a pattern with unbounded edges (callers
      fall back to recomputation for those). *)
end
