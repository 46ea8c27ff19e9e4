open Expfinder_graph
open Expfinder_pattern

(** Subgraph-isomorphism baseline (§I of the paper).

    The traditional semantics ExpFinder argues against: every pattern
    node maps to a {e distinct} data node (injective), every pattern
    edge to a {e single} data edge, labels and search conditions
    respected; bounds are ignored (an edge is an edge).  NP-complete in
    general — the backtracking search below (VF2-flavoured: iterative
    candidate ordering + pruning) is meant for the small patterns of
    expert queries, and [max_embeddings] caps enumeration.

    Used by the semantics-comparison experiment (EXP-B1) to reproduce
    the paper's Example 1 discussion: on Fig. 1, isomorphism cannot map
    SD to both Mat and Pat, and cannot match SA→BA across a path, so it
    misses the experts bounded simulation finds. *)

type embedding = int array
(** [embedding.(u)] is the data node pattern node [u] maps to. *)

val exists : Pattern.t -> Snapshot.t -> bool
(** Is there at least one embedding?  Stops at the first. *)

val matched_pairs : ?max_embeddings:int -> Pattern.t -> Snapshot.t -> (int * int) list
(** The (pattern node, data node) pairs covered by some embedding —
    directly comparable to {!Match_relation.pairs}. *)
