open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
open Expfinder_telemetry

(** The ExpFinder query engine (§II, Fig. 2).

    One engine owns one data graph and coordinates the four modules:

    + on a query, return the cached M(Q,G) when fresh;
    + otherwise, for a registered query, return its incrementally
      maintained kernel;
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

    The engine owns its data graph: all updates must flow through
    {!apply_updates} so that the cache, the compressed graph and the
    registered queries stay consistent.  A graph mutated behind the
    engine's back is never served: the engine keeps serving the last
    epoch it published, and refuses to build on the moved graph
    ({!apply_updates}, {!register} and {!enable_compression} raise
    [Invalid_argument]).

    Concurrency: the engine publishes one epoch at a time, through one
    atomic cell holding an immutable record of the snapshot, the
    registered kernels computed on it and the compressed graph built on
    it.  Readers pin a whole epoch with one atomic load and never take a
    lock for it; every mutation ({!apply_updates}, {!register},
    {!unregister}, the compression switches) runs under one writer lock,
    on the calling domain, and publishes a complete record, so a read
    during an update is served the previous epoch, maintained answers
    included.

    With [EXPFINDER_CHECK=1] in the environment (or
    {!Expfinder_core.Verify.set_differential}), every answer that did
    not come straight from the direct path is re-evaluated directly and
    compared, and all served relations are run through the
    {!Expfinder_core.Verify} checker; a divergence raises [Failure].

    Serving-path observability: every {!evaluate}, {!evaluate_batch}
    and {!apply_updates} call, answered or failed, ends in one
    {!Expfinder_telemetry.Request.finish}.  That one request record
    feeds the trace store, the continuous profile, the
    per-operation-class sliding window
    ({!Expfinder_telemetry.Window} classes [query]/[batch]/[update],
    with errors flagged), the always-on flight recorder and — when a
    query-log sink is configured ({!Expfinder_telemetry.Qlog},
    [EXPFINDER_QLOG]) — one schema-versioned JSONL event carrying the
    identity of the snapshot the request ran on, strategy, duration, counter deltas, answer size
    and digest, and a replayable payload consumed by
    [expfinder replay]. *)

type t

(** Where an answer came from (exposed for tests and experiments). *)
type provenance = From_cache | From_compressed | Direct

(** Per-query profile, populated when the call recorded its own trace
    (spans on for untraced calls ({!Expfinder_telemetry.set_enabled}),
    or a sampled trace context): the stage tree (plan → candidates → refine
    → rank for direct evaluation), the provenance, and the per-query
    deltas of every registered counter (candidate sizes, worklist pops,
    ball expansions, cache hits, compression expand cost, ...).  For
    {!evaluate} and {!evaluate_batch} the deltas are the finished
    request's own, the same list its flight-recorder record carries. *)
type profile = {
  query : string;  (** the pattern fingerprint *)
  provenance : provenance;
  span : Span.t;  (** the stage tree; export with {!Span.to_chrome_json} *)
  counters : (string * int) list;  (** nonzero per-request counter deltas *)
  trace_id : string;
      (** the request's trace id ([""] when it ran under the ambient
          context) *)
}

type answer = {
  relation : Match_relation.t;  (** the kernel relation *)
  total : bool;  (** whether M(Q,G) is nonempty (kernel is total) *)
  pairs : int;
      (** [Match_relation.total relation], read from the cache entry the
          answer was served from or stored into
          ({!Expfinder_storage.Cache.pairs}): it is counted once per
          cached relation, when the relation is stored.  The span
          annotation, the request record, the query log, the server
          reply and a batch's total all read this field. *)
  provenance : provenance;
  profile : profile option;
      (** present when this call owned a recorded trace: telemetry
          was enabled or the context was sampled, and the call was not
          nested under another traced call *)
  digest : string Lazy.t;
      (** The answer digest of [relation] as served (the hex MD5 that
          {!Expfinder_core.Match_relation} computes).  It is computed
          only when forced, and at most once per cached relation: it is
          memoised in the cache entry the answer was served from or
          stored into ({!Expfinder_storage.Cache.digest}), which the
          answer holds, so the server reply, the query log and the batch
          digest share one computation with no further cache lookup,
          even once the entry has been evicted.  An answer belongs to
          one request: force it only on the domain that serves that
          request (a [Lazy.t] must not be forced from two domains at
          once). *)
}

type expert = {
  node : int;
  name : string option;  (** the node's ["name"] attribute, if any *)
  rank : Ranking.rank;
}

val create : ?cache_capacity:int -> Digraph.t -> t
(** The engine takes ownership of the graph and snapshots it: from then
    on, mutate it only through {!apply_updates}. *)

val graph : t -> Digraph.t
(** The engine's data graph, for reading only: mutate it only through
    {!apply_updates}.  It may be ahead of {!snapshot} while a batch is
    being applied. *)

val snapshot : t -> Snapshot.t
(** The published epoch's snapshot: one atomic load, never a rebuild.
    All evaluation paths read this snapshot — queries in flight on an
    older epoch keep their pinned value untouched, and a read during
    {!apply_updates} is served the pre-update epoch until the writer
    publishes the next one (counted by [engine.snapshot.stale_reads]).
    After an outside mutation of {!graph} it stays the last published
    snapshot. *)

val evaluate : ?trace:Trace.ctx -> t -> Pattern.t -> answer
(** Cache → registered kernel → compressed → cached superset
    (containment) → direct, caching the result.  The kernel and the
    compressed graph come from the same pinned epoch as the snapshot.

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
(** Evaluate a batch of queries against {e one} pinned epoch.  The
    batch dedupes repeated fingerprints and answers each distinct member
    by {!evaluate}'s route (cache → registered kernel → compressed →
    cached superset (containment) → direct), so each member is served
    as {!evaluate} would serve it on the same cache state, and answers
    and [total] flags equal per-query {!evaluate}.  Members that
    contain others go first, so a contained member is answered by
    containment reuse from the kernel just cached; a duplicate gets a
    copy of its representative's answer, reported as {!From_cache}.
    Answers are returned in input order; [profile] is [None] on each
    answer — the whole batch's profile (root span ["evaluate_batch"])
    is available via {!last_profile}. *)

val top_k : t -> Pattern.t -> k:int -> expert list
(** Evaluate, build the result graph and rank the output node's matches
    (§II Results Ranking).  Empty when M(Q,G) is empty. *)

val result_graph : t -> Pattern.t -> Result_graph.t
(** The result graph of the query (for display / export). *)

val enable_compression : ?atoms:Predicate.atom list -> t -> unit
(** Build and maintain a compressed graph with the given atom universe
    (replacing any previous one), built only where it pays: when it
    removes at least {!Expfinder_compression.Compress.min_node_reduction}
    of the nodes.  The bisimulation refinement stops at the first pass
    whose block count rules that out, and then no compressed graph is
    built or kept: queries take the other routes and updates skip its
    maintenance.  During maintenance the graph is dropped once it has
    decayed past the same threshold.
    @raise Invalid_argument when the graph was mutated outside
    {!apply_updates}. *)

val disable_compression : t -> unit

val compression : t -> Compress.t option
(** The published epoch's compressed graph: [None] when compression is
    off, was declined as not paying, or was dropped during
    maintenance. *)

val register : t -> Pattern.t -> unit
(** Mark a query as frequently issued: its result is kept incrementally
    maintained across updates (§II Incremental Computation Module).  It
    is evaluated on the current epoch under the writer lock, so it waits
    for an update batch in flight and syncs from the epoch it was
    evaluated on; the epoch is republished with its kernel.
    @raise Invalid_argument when the graph was mutated outside
    {!apply_updates}. *)

val unregister : t -> Pattern.t -> unit
(** Stop maintaining a query, under the writer lock like {!register}. *)

val registered : t -> Pattern.t list
(** The registered queries of the published epoch, in registration
    order. *)

val apply_updates : ?trace:Trace.ctx -> t -> Update.t list -> Incremental.report list
(** Apply ΔG: updates the graph, rebuilds the snapshot, maintains the
    compressed graph and every registered query on it, publishes the
    whole epoch at once and then invalidates the cache; returns one
    maintenance report per registered query (in registration order).

    Every batch with an effective update publishes a snapshot rebuilt
    from the digraph ({!Expfinder_graph.Snapshot.of_digraph}, counted by
    [engine.snapshot_rebuilds]), the same build {!create} uses.

    A batch with no effective update (every insertion already present,
    every deletion already absent) changes nothing: the epoch, the cache,
    the compressed graph and the registered kernels are left as they
    are, and every report says [effective = 0].

    The batch runs on the calling domain under the writer lock, and its
    request event (query log, flight recorder) is emitted before the
    lock is released, so the log lists batches in the order they were
    applied.  The always-on [engine.writer.backlog] gauge counts the
    batches waiting for the lock.
    @raise Invalid_argument, before changing anything, when an edge
    update names a node the graph lacks, or when the graph was mutated
    outside {!apply_updates}. *)

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

val cache_counters : t -> int * int * int
(** (hits, misses, evictions) from the cache's telemetry counters. *)

val explain : t -> Pattern.t -> string
(** The query plan direct evaluation would use (§III "optimized query
    plans"): candidate order with selectivity estimates, pruning, and
    the chosen refinement strategy. *)

val explain_analyze : t -> Pattern.t -> string
(** {!explain} plus a per-node estimated-vs-actual table.  Plans and
    {e executes} the query directly (deliberately bypassing the
    cache/registered/compressed fast paths, and without storing the
    result), so the estimates can be confronted with the candidate sets
    actually materialised; misestimated nodes (>4x off either way) are
    flagged and counted by [planner.misestimate]. *)
