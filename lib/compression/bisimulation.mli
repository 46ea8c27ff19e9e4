open Expfinder_graph

(** Coarsest key-respecting bisimulation partition.

    Kanellakis–Smolka style refinement: start from blocks given by an
    initial key (label + predicate signature), then repeatedly split any
    block whose members disagree on "has a successor in block S" until
    the partition is stable.  Stable + key-respecting = a bisimulation;
    since we only split when forced, the result is the coarsest one.

    Worst case O(n·m); each pass is O(n+m) and real social graphs
    stabilise in a handful of passes. *)

val compute : Csr.t -> key:(int -> int) -> int array
(** [compute g ~key] returns [block_of], mapping each node to a dense
    block id in [0 .. max+1).  Nodes with different [key] values are
    never merged. *)

type outcome =
  | Partition of int array  (** the coarsest partition, as {!compute} returns it *)
  | Over_limit of { pass : int; blocks : int }
      (** refinement stopped after pass [pass] (0 is the initial key
          partition) with [blocks] blocks, over the limit; since
          refinement only ever splits blocks, [blocks] is a lower bound
          on the final count *)

val compute_within : Csr.t -> key:(int -> int) -> limit:int -> outcome
(** {!compute} with a block limit: the same refinement loop, stopped at
    the first pass whose block count exceeds [limit].  [Partition p]
    means the final count is within the limit, and [p] equals
    [compute g ~key]. *)

val refine_local : Csr.t -> key:(int -> int) -> prev:int array -> area:Bitset.t -> int array
(** Locally re-refine after an update: nodes outside [area] keep their
    [prev] block (and are guaranteed not to have successors inside
    [area] — the caller's affected-area invariant); [area] nodes are
    re-keyed and refined against the frozen blocks and each other.  The
    result is a valid bisimulation partition, possibly finer than the
    coarsest one (area nodes never re-merge into frozen blocks).  Block
    ids are re-normalised to a dense range. *)

val block_count : int array -> int
(** Number of distinct blocks ([max + 1]; blocks are dense). *)
