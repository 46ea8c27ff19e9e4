open Expfinder_graph
open Expfinder_pattern

(** Unified result checking — the self-check sanitizer behind
    [EXPFINDER_CHECK=1].

    {!check} validates a computed kernel against the definition,
    generalizing {!Simulation.consistent} / {!Bounded_sim.consistent}:

    - {e pair validity}: every pair [(u,v)] of the relation satisfies
      [u]'s label requirement and predicate, and every pattern edge
      [(u,u')] with bound [k] has a witness [v'] in [sim(u')] within a
      nonempty path of length [<= k] from [v];
    - {e maximality spot checks}: sampled candidate pairs {e outside}
      the relation must each violate some edge constraint — if one
      satisfies them all, the relation is not the maximal kernel.
      Only run when the relation is total: a non-total kernel means
      [M(Q,G) = ∅], and different evaluation paths legitimately return
      different (all semantically empty) non-total relations.

    {!differential} gates the engine's differential mode: every answer
    served from the cache, the compressed graph, a registered query or
    containment reuse is re-evaluated via the
    direct path and compared with {!semantically_equal}; a mismatch
    raises.  Enabled by [EXPFINDER_CHECK=1] in the environment (read at
    startup) or {!set_differential} (tests, the CLI's [--check]). *)

type report = {
  checked_pairs : int;
  checked_candidates : int;  (** excluded pairs probed for maximality *)
  errors : string list;  (** empty iff the relation passed *)
}

val check :
  ?max_pairs:int -> ?max_candidates:int -> Pattern.t -> Snapshot.t -> Match_relation.t -> report
(** Sampling is deterministic (evenly strided); [max_pairs] (default
    512) bounds validity checks, [max_candidates] (default 512) bounds
    maximality probes. *)

val check_exn :
  ?max_pairs:int -> ?max_candidates:int -> Pattern.t -> Snapshot.t -> Match_relation.t -> unit
(** @raise Failure with the first errors when {!check} finds any. *)

val semantically_equal : Match_relation.t -> Match_relation.t -> bool
(** Equal as query answers: structurally equal, or both non-total
    (both denote [M(Q,G) = ∅]). *)

val differential : unit -> bool

val set_differential : bool -> unit
