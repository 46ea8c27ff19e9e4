open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

(** Incremental maintenance of M(Q,G) under graph updates (§II
    Incremental Computation Module; Fan et al., SIGMOD 2011).

    The module keeps, per registered query, the current kernel relation
    and maintains it when ΔG arrives, instead of recomputing from
    scratch.  The default mechanism is {e change-driven area growth}:

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
    cheaper path.  A conservative {!Ancestors} strategy (freeze
    everything outside the full ancestor set of the touched sources) is
    kept as the ablation baseline; it is never routed. *)

type t

(** How the affected area is computed.  {!Ball_closure} is the default
    change-driven algorithm; {!Ancestors} is the conservative baseline
    (one-shot, whole reverse-reachable set). *)
type area_strategy = Ball_closure | Ancestors

type report = {
  effective : int;  (** updates that actually changed the graph *)
  area : int;  (** size of the final affected area *)
  iterations : int;
      (** refinement rounds (Ball_closure growth steps); [0] when the
          sync ended in a dense recomputation — routed there because
          the predicted sparse work was above the price of a recompute,
          or stopped once the sparse work passed it (the area is then
          |V|) — and for a batch with no effective update *)
  added : (int * int) list;  (** pairs added to the kernel *)
  removed : (int * int) list;  (** pairs removed from the kernel *)
}

val create : ?area_strategy:area_strategy -> Pattern.t -> Digraph.t -> t
(** Evaluate the query from scratch and start tracking the given live
    digraph.  Maintenance runs directly on it (no snapshot rebuilds), so
    apply later updates through {!apply_updates} or — after mutating it
    elsewhere — {!sync_applied}. *)

val pattern : t -> Pattern.t

val kernel : t -> Match_relation.t
(** Current kernel relation (see {!Simulation} on kernels). *)

val result_pairs : t -> (int * int) list
(** The paper's M(Q,G): the kernel's pairs when it is total, [[]]
    otherwise. *)

val digraph : t -> Digraph.t
(** The tracked graph. *)

val version : t -> int
(** The graph version the kernel is synchronised with. *)

val snapshot : t -> Snapshot.t
(** Fresh CSR snapshot of the tracked graph (test/debug convenience). *)

val apply_updates : t -> Digraph.t -> Update.t list -> report
(** Apply ΔG to the tracked digraph and maintain the kernel
    incrementally.  @raise Invalid_argument when [g] is not the tracked
    digraph or was mutated behind the module's back. *)

val sync_applied : ?published:Snapshot.t -> t -> effective:Update.t list -> report
(** Maintenance after the {e effective} updates were already applied to
    the tracked digraph (e.g. by the engine, which fans one batch out to
    several trackers).  [effective] must not contain no-ops — use
    {!Update.apply_batch_filtered}.  A dense recomputation evaluates on
    [published] when it is a snapshot of the tracked digraph at its
    current version, and builds one otherwise.

    The [incremental.sync] span carries the [route] taken ([sparse],
    [recompute] or [aborted]), the [price] of a recompute, the
    [predicted] and [spent] sparse work (all in dense work units), the
    [area] and the [rounds]. *)

val recompute : t -> unit
(** Re-evaluate from scratch (the batch baseline) and resynchronise. *)
