open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
open Expfinder_telemetry

(** The ExpFinder query engine (§II, Fig. 2).

    One engine owns one data graph and coordinates the four modules:

    + on a query, return the cached M(Q,G) when fresh;
    + otherwise evaluate on the maintained compressed graph when one is
      enabled and supports the query (expanding the result);
    + otherwise, when the cache holds the total kernel of a {e superset}
      query ({!Expfinder_pattern.Pattern_analysis.contains}), filter it
      by the incoming pattern's specs and refine below it instead of
      scanning the graph (containment reuse, counted by
      [engine.containment_hits], reported as {!From_cache});
    + otherwise evaluate directly (simulation engine for bound-1
      patterns, bounded simulation otherwise);
    + rank the output node's matches and select top-K experts;
    + registered queries are maintained incrementally as updates arrive,
      and the compressed graph is maintained alongside.

    All updates must flow through {!apply_updates} so that the cache,
    the compressed graph and the registered queries stay consistent.

    With [EXPFINDER_CHECK=1] in the environment (or
    {!Expfinder_core.Verify.set_differential}), every answer that did
    not come straight from the direct path is re-evaluated directly and
    compared, and all served relations are run through the
    {!Expfinder_core.Verify} checker; a divergence raises [Failure].

    Serving-path observability: every {!evaluate}, {!evaluate_batch}
    and {!apply_updates} call feeds the always-on flight recorder and
    the per-operation-class sliding windows
    ({!Expfinder_telemetry.Window} classes [query]/[batch]/[update],
    with errors flagged), and — when a query-log sink is configured
    ({!Expfinder_telemetry.Qlog}, [EXPFINDER_QLOG]) — appends one
    schema-versioned JSONL event carrying the snapshot identity,
    strategy, duration, counter deltas, answer size and digest, and a
    replayable payload consumed by [expfinder replay]. *)

type t

(** Where an answer came from (exposed for tests and experiments). *)
type provenance = From_cache | From_compressed | From_index | Direct

(** Per-query profile, populated when telemetry is enabled
    ({!Expfinder_telemetry.set_enabled}): the stage tree (plan →
    candidates → refine → rank for direct evaluation), the provenance,
    and the per-query deltas of every registered counter (candidate
    sizes, worklist pops, ball expansions, cache hits, compression
    expand cost, ...). *)
type profile = {
  query : string;  (** the pattern fingerprint *)
  provenance : provenance;
  span : Span.t;  (** the stage tree; export with {!Span.to_chrome_json} *)
  counters : (string * int) list;  (** nonzero per-query counter deltas *)
  trace_id : string;
      (** the request's trace id ([""] when it ran under the ambient
          context) *)
}

type answer = {
  relation : Match_relation.t;  (** the kernel relation *)
  total : bool;  (** whether M(Q,G) is nonempty (kernel is total) *)
  provenance : provenance;
  profile : profile option;
      (** present when telemetry is enabled and this call owned the
          trace (i.e. it was not nested under another traced call) *)
}

type expert = {
  node : int;
  name : string option;  (** the node's ["name"] attribute, if any *)
  rank : Ranking.rank;
}

val create : ?cache_capacity:int -> Digraph.t -> t
(** The engine snapshots the graph; mutate it only via
    {!apply_updates}. *)

val graph : t -> Digraph.t

val snapshot : t -> Snapshot.t
(** The engine's current-epoch snapshot, memoised: rebuilt only when the
    digraph's version disagrees (i.e. it was mutated outside
    {!apply_updates}, the single place that check lives).  All
    evaluation paths read this snapshot — queries in flight on an older
    epoch keep their pinned value untouched.

    The snapshot lives in an atomic epoch-publication cell: readers pin
    one coherent epoch with a single atomic load and never block on a
    concurrent {!apply_updates} (they serve the pre-update epoch until
    the writer publishes the next one).  The rebuild-on-external-
    mutation path is serialized with the writer. *)

val evaluate : ?trace:Trace.ctx -> t -> Pattern.t -> answer
(** Cache → compressed → cached superset (containment) → ball index →
    direct, caching the result.

    [?trace] is the request's explicit trace context (default
    {!Expfinder_telemetry.Trace.ambient}): its id is stamped into the
    flight-recorder event, the qlog event and the per-query profile,
    the finished request is offered to the
    {!Expfinder_telemetry.Tracestore} (errors and p99-exceeding
    requests always kept, the rest head-sampled), and — when admitted —
    the id is advertised as the latency bucket's histogram exemplar.
    The same contract applies to {!evaluate_batch} and
    {!apply_updates}. *)

val evaluate_batch : ?trace:Trace.ctx -> t -> Pattern.t list -> answer list
(** Evaluate a batch of queries against {e one} pinned snapshot.
    Answers equal per-query {!evaluate} (same relations, same [total]),
    but the batch: serves exact cache hits first, dedupes repeated
    fingerprints, extracts candidates for all remaining queries in a
    single labelled scan ({!Expfinder_core.Candidates.compute_batch} —
    compare [candidates.scans] against the sequential loop), and
    evaluates containment-supersets first so contained batch members are
    answered by seeded refinement without any scan.  Answers are
    returned in input order; [profile] is [None] on each answer — the
    whole batch's profile (root span ["evaluate_batch"]) is available
    via {!last_profile}. *)

val top_k : t -> Pattern.t -> k:int -> expert list
(** Evaluate, build the result graph and rank the output node's matches
    (§II Results Ranking).  Empty when M(Q,G) is empty. *)

val result_graph : t -> Pattern.t -> Result_graph.t
(** The result graph of the query (for display / export). *)

val enable_ball_index : ?radius:int -> t -> unit
(** Opt into the precomputed distance index (default radius 3): bounded
    queries whose bounds fit the radius are answered with indexed ball
    scans instead of BFS.  The index is rebuilt lazily after updates. *)

val disable_ball_index : t -> unit

val enable_compression : ?atoms:Predicate.atom list -> t -> unit
(** Build and maintain a compressed graph with the given atom universe
    (replacing any previous one). *)

val disable_compression : t -> unit

val compression : t -> Compress.t option
(** The current compressed graph, when enabled. *)

val register : t -> Pattern.t -> unit
(** Mark a query as frequently issued: its result is kept incrementally
    maintained across updates (§II Incremental Computation Module). *)

val unregister : t -> Pattern.t -> unit

val registered : t -> Pattern.t list

val apply_updates : ?trace:Trace.ctx -> t -> Update.t list -> Incremental.report list
(** Apply ΔG: updates the graph, advances the snapshot to the next
    epoch, invalidates the cache, maintains the compressed graph and
    every registered query; returns one maintenance report per
    registered query (in registration order).

    The epoch advance is copy-on-write for small pure-edge batches: the
    next snapshot is produced by patching the pinned one with the net
    edge delta ({!Expfinder_graph.Snapshot.advance}, counted by
    [engine.snapshot_advances]), sharing the node tables physically.
    Batches that insert nodes, or whose net delta exceeds a quarter of
    the edge count, fall back to a full rebuild
    ([engine.snapshot_rebuilds]).

    A batch with no effective update (every insertion already present,
    every deletion already absent) changes nothing: the epoch, the cache,
    the compressed graph and the registered kernels are left as they
    are, and every report says [effective = 0]. *)

val last_profile : t -> profile option
(** The profile of the most recent traced query ({!evaluate} or
    {!top_k}), when telemetry is enabled.  The CLI's [--profile] and
    [--trace] read it after the query returns. *)

val pp_profile : Format.formatter -> profile -> unit
(** Stage tree plus per-query counters, human-readable. *)

val profile_json : profile -> Json.t
(** The profile as a [{query; provenance; trace_id; span; counters;
    recorder}]
    object (the structured-report serialization of a per-query profile).
    [recorder] is the flight-recorder ring at serialization time, so a
    slow-query profile ships with the requests that led up to it. *)

val cache_stats : t -> int * int
(** (hits, misses).  Kept for compatibility; prefer {!cache_counters},
    which also reports evictions.  Both read the same telemetry
    counters, so they can never disagree. *)

val cache_counters : t -> int * int * int
(** (hits, misses, evictions) from the cache's telemetry counters. *)

val explain : t -> Pattern.t -> string
(** The query plan direct evaluation would use (§III "optimized query
    plans"): candidate order with selectivity estimates, pruning, and
    the chosen refinement strategy. *)

val explain_analyze : t -> Pattern.t -> string
(** {!explain} plus a per-node estimated-vs-actual table.  Plans and
    {e executes} the query directly (deliberately bypassing the
    cache/compression/index fast paths, and without storing the result),
    so the estimates can be confronted with the candidate sets actually
    materialised; misestimated nodes (>4x off either way) are flagged
    and counted by [planner.misestimate]. *)
