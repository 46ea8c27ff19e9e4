open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

(** Incremental maintenance of M(Q,G) under graph updates (§II
    Incremental Computation Module; Fan et al., SIGMOD 2011).

    The module keeps, per registered query, the current kernel relation
    and maintains it when ΔG arrives, instead of recomputing from
    scratch.  The mechanism is {e change-driven area growth}:

    - a node's (bounded-)simulation membership depends only on the
      candidates within its dependency balls — [kmax] hops downstream,
      where [kmax] is the largest edge bound of the pattern (the whole
      reachable set for unbounded edges);
    - the area is seeded with the candidates whose ball could contain a
      touched edge (reverse balls of radius [kmax] around each touched
      edge source, in the old and new graphs);
    - the area is refined to the greatest fixpoint with the outside
      frozen; any membership that {e actually} changed pulls the
      candidates within [kmax] upstream of it into the area, and the
      refinement repeats until no change escapes — at which point the
      frozen remainder is provably unchanged.

    Cost therefore tracks the size of the real change neighbourhood,
    which gives the paper's large wins for unit and small batch updates.
    As |ΔG| grows the neighbourhood does too, and past some size a dense
    batch run is cheaper (the crossovers of §III).  So each sync is
    routed by cost, counted in deterministic {!Expfinder_graph.Work}
    units: the price of a recompute is the work of the query's last
    dense evaluation; the seeding BFS and the query's last two sparse
    attempts predict the sparse work; a prediction above the price
    recomputes at once, and a sparse sync that spends more than the
    price mid-way stops and recomputes — at most about twice the
    cheaper path.

    A tracker also keeps the query's candidate relation (the nodes
    whose label and attributes satisfy each pattern node).  Updates
    never change a node's label or attributes, so a recompute does not
    rescan the graph: it extends that relation with the nodes inserted
    since and refines it with the dense kernel.

    Every read goes through {!Snapshot}s: a tracker keeps the snapshot
    its kernel was computed on, and a sync walks it for the old graph
    and a snapshot of the current version for the new one. *)

type t

type report = {
  effective : int;  (** updates that actually changed the graph *)
  area : int;  (** size of the final affected area *)
  iterations : int;
      (** refinement rounds (area growth steps); [0] when the
          sync ended in a dense recomputation — routed there because
          the predicted sparse work was above the price of a recompute,
          or stopped once the sparse work passed it (the area is then
          |V|) — and for a batch with no effective update *)
  added : (int * int) list;  (** pairs added to the kernel *)
  removed : (int * int) list;  (** pairs removed from the kernel *)
}

val create : ?published:Snapshot.t -> Pattern.t -> Digraph.t -> t
(** Evaluate the query from scratch on a snapshot of the given live
    digraph at its current version, and start tracking the digraph:
    apply later updates through {!apply_updates} or — after mutating it
    elsewhere — {!sync_applied}.  The snapshot is [published] when that
    is one of this digraph at its current version (same graph id and
    epoch); otherwise it is built with {!Snapshot.of_digraph}. *)

val pattern : t -> Pattern.t

val kernel : t -> Match_relation.t
(** Current kernel relation (see {!Simulation} on kernels).  A sync
    never mutates a kernel this function has returned: it refines a
    copy and installs a fresh relation when it finishes.  A returned
    kernel therefore stays the kernel on {!snapshot} at the time of the
    call and may be read from other domains while later syncs run; it
    is not copied, so callers must not mutate it. *)

val snapshot : t -> Snapshot.t
(** The snapshot the kernel was computed on: its identity says which
    epoch of the tracked digraph the kernel describes. *)

val apply_updates : t -> Digraph.t -> Update.t list -> report
(** Apply ΔG to the tracked digraph and maintain the kernel
    incrementally.  @raise Invalid_argument when [g] is not the tracked
    digraph or was mutated behind the module's back. *)

val sync_applied : ?published:Snapshot.t -> t -> effective:Update.t list -> report
(** Maintenance after the {e effective} updates were already applied to
    the tracked digraph (e.g. by the engine, which fans one batch out to
    several trackers).  [effective] must not contain no-ops — use
    {!Update.apply_batch_filtered} — and must be every change since the
    tracker's {!snapshot}.  The sync reads the old graph from that
    snapshot and the new one from a snapshot of the current version:
    [published] when it is one (same graph id and epoch), else one built
    with {!Snapshot.of_digraph}, which becomes the tracker's
    {!snapshot}.  Any other [published] is ignored.

    The [incremental.sync] span carries the [route] taken ([sparse],
    [recompute] or [aborted]), the [price] of a recompute, the
    [predicted] and [spent] sparse work (all in dense work units), the
    [area] and the [rounds]. *)

val refine_over_area :
  Pattern.t -> Digraph.t -> initial:Match_relation.t -> area:Bitset.t -> Match_relation.t
(** The refinement step of a sync: the greatest fixpoint below
    [initial] that removes only pairs on nodes of [area], the rest being
    frozen and trusted.  It runs the dense {!Simulation} or
    {!Bounded_sim} kernel on an area-local CSR — the area and every node
    within [kmax] hops downstream of it, with the out-edges of the nodes
    within [kmax - 1] hops — which keeps every distance an area node's
    constraints read exact.  Equal to
    [run_constrained ~mutable_set:(Some area)] on a snapshot of [g],
    which it builds; the input is not mutated.
    @raise Invalid_argument on a pattern with unbounded edges, which
    have no dependency radius. *)
