open Expfinder_graph
open Expfinder_pattern
open Expfinder_incremental

(** Incremental maintenance of the compressed graph.

    On ΔG, only the ancestors of the touched edge sources can change
    equivalence class (bisimilarity, like simulation membership, is a
    property of a node's descendant subgraph).  The maintained partition
    re-keys and re-refines just that affected area against the frozen
    remainder ({!Bisimulation.refine_local}), then rebuilds Gc from the
    partition.

    The maintained partition is always a valid bisimulation — hence Gc
    stays query-preserving — but may be finer than the coarsest one
    (area nodes are not re-merged into frozen blocks), so compression
    quality can drift below the from-scratch optimum; {!fresh_block_count}
    measures the gap, and experiment EXP-C3 tracks it. *)

type t

type report = {
  effective : int;  (** updates that changed the graph *)
  area : int;  (** affected-area size *)
  blocks_before : int;
  blocks_after : int;
}

val create : ?atoms:Predicate.atom list -> Digraph.t -> t
(** Compress from scratch and start tracking. *)

val create_if_pays : ?atoms:Predicate.atom list -> Snapshot.t -> t option
(** Compress [snapshot] and start tracking it, only where it pays: the
    refinement stops at the first pass whose block count exceeds
    {!Compress.block_limit}, and then [None] is returned with no
    compressed graph built. *)

val current : t -> Compress.t
(** The maintained compressed graph. *)

val snapshot : t -> Snapshot.t
(** The tracked source snapshot; its identity must match the engine's
    current epoch for {!sync}-based maintenance to be coherent. *)

val apply_updates : t -> Digraph.t -> Update.t list -> report
(** Apply ΔG and maintain.  @raise Invalid_argument when the digraph's
    identity [(graph_id, version)] differs from the tracked snapshot's
    (i.e. it was mutated behind the module's back, or it is a different
    graph altogether). *)

val sync : t -> snapshot:Snapshot.t -> effective:int -> Update.t list -> report
(** Maintenance against an externally applied ΔG, landing on the given
    post-update snapshot (see
    {!Expfinder_incremental.Incremental.sync_applied}). *)

val sync_if_pays :
  t -> snapshot:Snapshot.t -> effective:int -> Update.t list -> report option
(** {!sync} held to {!Compress.block_limit}.  When the maintained
    partition is over the limit, a limited from-scratch refinement
    decides: within it, its coarsest partition is adopted; past it,
    [None] is returned, nothing is built, and the tracker is left at its
    previous snapshot, to be dropped. *)

val rebuild : t -> Digraph.t -> unit
(** From-scratch recompression (the baseline, also restores coarsest-
    partition optimality). *)

val fresh_block_count : t -> int
(** Blocks of a from-scratch compression of the current graph (for
    measuring maintenance-quality drift; costs a full recompute). *)
