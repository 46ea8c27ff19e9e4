open Expfinder_graph
open Expfinder_pattern

(** Bounded simulation (edge-to-path matching).

    The cubic-time algorithm of Fan et al. (PVLDB 2010): a candidate [v]
    of pattern node [u] survives iff for every pattern edge [(u,u')] with
    bound [k] some node of [sim(u')] lies within a nonempty path of
    length [<= k] from [v] (unbounded edges: within any nonempty path).
    As with {!Simulation}, the result is the kernel; apply
    {!Match_relation.is_total} for the paper's M(Q,G).

    The kernel is the witness-list refinement: each mutable candidate
    [v] of [u] keeps, per pattern edge [(u,u',k)], one witness [w] of
    [sim(u')] within [k] hops (unbounded edges: within
    {!Distance.eccentricity_bound} hops), found by an early-exit forward
    ball, and sits on [w]'s dependents list for that edge.  When
    [(u',w)] is removed only [w]'s dependents search again: each relinks
    to another witness or is removed in turn.  Its cost follows the
    balls the candidates actually search, not every witness's reverse
    ball. *)

val run : ?work:Work.t -> Pattern.t -> Snapshot.t -> Match_relation.t
(** Bounded-simulation kernel from scratch: {!refine} from
    {!Candidates.compute}.  [?work] is charged with the BFS node visits
    of the refinement ({!Distance.visits}). *)

val run_constrained :
  Pattern.t ->
  Snapshot.t ->
  initial:Match_relation.t ->
  mutable_set:Bitset.t option ->
  Match_relation.t
(** Greatest fixpoint below [initial] touching only nodes of
    [mutable_set]; see {!Simulation.run_constrained}. *)

val refine :
  work:Work.t ->
  Pattern.t ->
  Snapshot.t ->
  initial:Match_relation.t ->
  mutable_set:Bitset.t option ->
  Match_relation.t
(** The kernel behind {!run} and {!run_constrained}: the greatest
    fixpoint below [initial] touching only nodes of [mutable_set], whose
    candidates are never searched.  [work] is charged with the visits of
    each witness search as it ends, so a meter with a limit stops it
    with {!Work.Exhausted} part-way, at most one ball past the limit.
    The [bsim.*] counters it moves (balls, worklist pops, removals) are
    flushed once when it returns or raises. *)
