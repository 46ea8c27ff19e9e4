open Expfinder_graph
open Expfinder_pattern

(** Bounded simulation (edge-to-path matching).

    The cubic-time algorithm of Fan et al. (PVLDB 2010): a candidate [v]
    of pattern node [u] survives iff for every pattern edge [(u,u')] with
    bound [k] some node of [sim(u')] lies within a nonempty path of
    length [<= k] from [v] (unbounded edges: within any nonempty path).
    As with {!Simulation}, the result is the kernel; apply
    {!Match_relation.is_total} for the paper's M(Q,G).

    Two refinement strategies are provided (ablation EXP-A1):

    - [Counters]: precompute, per pattern edge, reverse balls of radius
      [k] and maintain "witnesses within reach" counters; removals
      propagate like Henzinger–Henzinger–Kopke.  Fastest from scratch.
    - [Naive]: sweep candidates re-checking each constraint with a
      bounded BFS until a sweep removes nothing.  Slower from scratch but
      its cost is proportional to the candidate area, which makes it the
      right engine for incremental recomputation over small areas. *)

type strategy = Naive | Counters

val default_strategy : strategy

val run : ?strategy:strategy -> Pattern.t -> Snapshot.t -> Match_relation.t

val run_constrained :
  ?strategy:strategy ->
  Pattern.t ->
  Snapshot.t ->
  initial:Match_relation.t ->
  mutable_set:Bitset.t option ->
  Match_relation.t
(** Greatest fixpoint below [initial] touching only nodes of
    [mutable_set]; see {!Simulation.run_constrained}. *)

val consistent : Pattern.t -> Snapshot.t -> Match_relation.t -> bool
(** Every pair satisfies its bound constraints w.r.t. the relation. *)

val strategy_name : strategy -> string
