open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

(** Query-preserving graph compression (§II Graph Compression Module;
    Fan et al., SIGMOD 2012).

    Nodes that are bisimilar — same label, same satisfaction of the
    declared predicate atoms, and matching successor behaviour at every
    depth — have identical (bounded-)simulation membership for every
    pattern whose conditions draw from those atoms.  Merging each
    equivalence class into one node yields a compressed graph Gc that
    the ordinary query engine evaluates directly; M(Q,G) is recovered by
    expanding each matched class into its members (linear time).

    The atom universe fixes the query class the compression preserves:
    a pattern is {!supports}-ed iff its label requirements are concrete
    or wildcard as usual and every predicate atom appears in the
    universe.  An empty universe supports exactly the label-only
    patterns. *)

type t

val compress : ?atoms:Predicate.atom list -> Snapshot.t -> t
(** Compress a snapshot.  [atoms] is the predicate-atom universe
    (default: none). *)

val signature_key : Predicate.atom list -> Snapshot.t -> int -> int
(** The partition key: label plus one satisfaction bit per atom.  Nodes
    merged by any partition used with {!of_partition} must agree on it. *)

val block_limit : int -> int
(** [block_limit n]: the most blocks a partition of [n] nodes may keep
    and still remove a quarter of them: a compressed graph is kept only
    where it removes that share, below which building Gc and keeping it
    in step with every update costs more than evaluating on it saves
    (DESIGN.md, "Compression only where it pays"). *)

val of_partition : ?atoms:Predicate.atom list -> Snapshot.t -> int array -> t
(** Build the compressed graph from an externally computed partition
    (used by incremental maintenance).  The partition must respect
    labels and atom signatures. *)

val original : t -> Snapshot.t
(** The snapshot that was compressed. *)

val compressed : t -> Snapshot.t
(** Gc as an ordinary snapshot — directly queryable. *)

val partition : t -> int array
(** Fresh copy of the node -> block mapping. *)

val node_ratio : t -> float
(** [1 - |Vc| / |V|]; the paper reports 57% average reduction. *)

val edge_ratio : t -> float

val supports : t -> Pattern.t -> bool
(** Is every predicate atom of the pattern inside the universe? *)

val evaluate : t -> Pattern.t -> Match_relation.t
(** The kernel over original nodes: evaluated on Gc, then expanded
    block by block in linear time.  @raise Invalid_argument when the
    pattern is not {!supports}ed. *)
