open Expfinder_graph
open Expfinder_pattern

(** Candidate-set construction.

    The starting point of every matching algorithm: for each pattern node
    [u], the set of data nodes whose label and attributes satisfy [u]'s
    search conditions (condition (2)(a) of the bounded-simulation
    definition).  Uses the snapshot's label index when the pattern node
    has a concrete label. *)

val compute : Pattern.t -> Snapshot.t -> Match_relation.t
(** The full candidate relation (not yet refined by edge constraints). *)

val compute_batch : Pattern.t array -> Snapshot.t -> Match_relation.t array
(** Candidate relations for a whole batch of queries in one pass: the
    (query, pattern-node) specs of all queries are grouped by label, so
    each label bucket — and the full node table, when some spec is
    unlabelled — is traversed once for the batch instead of once per
    spec.  Result [i] equals [compute patterns.(i) g]; the saving shows
    up in the [candidates.scans] counter. *)

val compute_for_nodes : Pattern.t -> Snapshot.t -> Bitset.t -> Match_relation.t
(** Candidates restricted to data nodes in the given set; other nodes are
    left out regardless of their labels (used by incremental matching to
    limit recomputation to an affected area). *)
