open Expfinder_graph
open Expfinder_pattern

(** Query planning (§III: "how (bounded) simulation queries are processed
    on large graphs by generating optimized query plans").

    A plan fixes, before evaluation:

    - the {e candidate order}: pattern nodes sorted by estimated
      candidate count (label frequency × sampled predicate selectivity).
      Candidate sets are materialised in that order, so queries that
      cannot match (some pattern node has no candidate) exit before any
      refinement work — the common case for selective expert queries;
    - {e degree pruning}: a candidate of a pattern node with outgoing
      edges needs at least one outgoing data edge, so sinks are pruned
      from its candidate set up front;
    - the {e refinement strategy}: plain simulation for bound-1
      patterns, the {!Bounded_sim} witness kernel otherwise;
    - the {e static fast path}: Qlint ({!Pattern_analysis}) runs over
      the pattern first.  A node with contradictory conditions makes
      the kernel empty on every graph, so execution returns immediately
      (counted by [planner.static_empty], no [candidates]/[refine]
      spans); satisfiable predicates are implication-tightened before
      selectivity sampling and candidate materialisation.

    Executing a plan returns exactly the kernel the unplanned engines
    produce; planning only changes the work spent getting there. *)

type strategy_choice = Use_simulation | Use_bounded

val strategy_name : strategy_choice -> string
(** Short strategy label, e.g. ["simulation"] or ["bounded/witness"]
    (the flight recorder's and span tracer's strategy tag). *)

type actuals = {
  candidates : int array;
      (** materialised candidate-set size per pattern node; [-1] when the
          set was never materialised (an earlier node exited empty, or
          the static fast path fired) *)
  matched : int array;  (** final kernel matches per pattern node *)
}

type t = {
  candidate_order : int array;  (** pattern nodes, cheapest first *)
  estimates : float array;  (** estimated candidate count per pattern node *)
  strategy : strategy_choice;
  prunable : bool array;  (** pattern nodes whose sink candidates are pruned *)
  static_empty : bool;  (** Qlint proved the kernel empty on every graph *)
  preds : Predicate.t array;  (** implication-tightened per-node predicates *)
  mutable actuals : actuals option;
      (** execution feedback, filled in by {!execute} (EXPLAIN ANALYZE);
          [None] until the plan has been executed *)
}

val plan : ?sample:int -> Pattern.t -> Snapshot.t -> t
(** Build a plan from snapshot statistics.  [sample] (default 64) bounds
    the nodes probed per pattern node for predicate selectivity. *)

val execute : t -> Pattern.t -> Snapshot.t -> Match_relation.t
(** Evaluate the query according to the plan (kernel semantics, like
    {!Simulation.run} / {!Bounded_sim.run}).  Also records {!actuals} on
    the plan and bumps [planner.misestimate] for every materialised node
    whose estimate was off by more than 4x in either direction. *)

val run : ?sample:int -> Pattern.t -> Snapshot.t -> Match_relation.t
(** [execute (plan p g) p g]. *)

val run_with_plan : ?sample:int -> Pattern.t -> Snapshot.t -> Match_relation.t * t
(** Like {!run}, but also return the executed plan (with its
    {!actuals}) — the engine's EXPLAIN ANALYZE entry point. *)

val explain : Pattern.t -> t -> string
(** Human-readable plan description (the CLI's query-plan display). *)

val explain_analyze : Pattern.t -> t -> string
(** {!explain} plus a per-node estimated-vs-actual table (candidate-set
    sizes, matches, refinement removals, misestimate flags) when the
    plan has been executed. *)
