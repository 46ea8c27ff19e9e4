open Expfinder_graph
open Expfinder_pattern

(** Graph simulation (edge-to-edge matching).

    The worklist algorithm of Henzinger, Henzinger & Kopke (FOCS 1995):
    start from the predicate candidate sets and repeatedly remove a
    candidate [v] of pattern node [u] when some pattern edge [(u,u')] has
    no witness successor of [v] left in [sim(u')].  Per-(edge, node)
    successor counters make each removal O(in-degree), for O(|Q|·|G|)
    total.

    All functions return the {e kernel}: the maximal relation satisfying
    the per-pair conditions (2a)/(2b) of the paper's definition.  The
    paper's M(Q,G) is the kernel when it is total (every pattern node has
    a match, condition (1)) and the empty relation otherwise — use
    {!Match_relation.is_total}.  Edge bounds are ignored; callers
    dispatch on {!Pattern.is_simulation_pattern}. *)

val run : ?work:Work.t -> Pattern.t -> Snapshot.t -> Match_relation.t
(** Simulation kernel from scratch.  [?work] is charged with every
    adjacency entry the refinement scans. *)

val run_constrained :
  Pattern.t ->
  Snapshot.t ->
  initial:Match_relation.t ->
  mutable_set:Bitset.t option ->
  Match_relation.t
(** Greatest fixpoint below [initial], removing only pairs whose data
    node lies in [mutable_set] ([None] = all nodes mutable).  Pairs on
    frozen nodes are kept even if their constraints fail — the caller
    guarantees they are consistent (see the incremental module).  The
    input is not mutated. *)

val refine :
  work:Work.t ->
  Pattern.t ->
  Snapshot.t ->
  initial:Match_relation.t ->
  mutable_set:Bitset.t option ->
  Match_relation.t
(** The kernel behind {!run} and {!run_constrained}, charging [work] as
    it scans — the counting pass one pattern edge at a time, then every
    worklist pop — so a meter with a limit stops it with
    {!Work.Exhausted} part-way, at most one charge past the limit. *)

val consistent : Pattern.t -> Snapshot.t -> Match_relation.t -> bool
(** Check (for tests) that every pair of the relation satisfies the
    simulation conditions w.r.t. the relation itself. *)
