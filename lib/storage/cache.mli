open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

(** Query-result cache (§II: "the query engine directly returns M(Q,G)
    if it is already cached").

    Results are keyed by (pattern fingerprint, snapshot identity): the
    identity [(graph_id, epoch)] pins both the graph and its epoch, so
    the cache can never serve a stale relation — and, unlike the old
    bare-version key, never confuses a graph with its copy (both start
    at version 0 but carry distinct graph ids).  Eviction is LRU with a
    bounded entry count.

    Accounting is built on the telemetry registry: each instance keeps
    always-on {!Expfinder_telemetry.Telemetry.Counter} values (read by
    {!hits}/{!misses}/{!evictions}), and the same code paths bump the
    registered [cache.hits]/[cache.misses]/[cache.evictions]/
    [cache.stores] counters, so per-instance stats and the process-wide
    metrics dump cannot drift apart.

    All operations are serialized by an internal mutex: with the
    domain-pool server, any worker domain probes and stores while
    another worker clears it on update, and the LRU clock/stamp updates are
    read-modify-write.  Probes return defensive copies taken under the
    lock, so callers never share a relation with the cache.

    Each entry also carries a {!memo} of what its relation's answer
    reports: the pair count, fixed at {!store}, and the answer digest,
    computed on first use.  A hit and a store hand the memo back with
    the relation, so reading either fact takes no second lookup.
    Stored relations are never mutated, so a memo cannot go stale. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 64 entries. *)

type memo
(** One entry's derived facts: {!pairs} and {!digest} of its stored
    relation.  A memo stays valid after its entry is evicted or
    cleared; it is simply no longer reachable from the table. *)

val find :
  t -> Pattern.t -> snapshot:Snapshot.identity -> (Match_relation.t * memo) option
(** A hit returns a defensive copy of the stored relation with the
    entry's memo, and refreshes recency. *)

val store : t -> Pattern.t -> snapshot:Snapshot.identity -> Match_relation.t -> unit
(** Insert (copying the relation and counting its pairs), evicting the
    least recently used entry when full. *)

val store_memo :
  t -> Pattern.t -> snapshot:Snapshot.identity -> Match_relation.t -> memo
(** {!store}, returning the new entry's memo. *)

val pairs : memo -> int
(** [Match_relation.total] of the stored relation, counted once at
    {!store}. *)

val digest : memo -> string
(** [Match_relation.digest] of the stored relation, computed at most
    once per entry: the first call digests and publishes it, later calls
    return that same string.  It is the digest of the relation as
    stored: a copy the caller has mutated since no longer matches it.
    Recency and the hit/miss counters are untouched.  With
    [EXPFINDER_CHECK] on, every use of a memo recomputes the digest and
    raises [Failure] if the two differ. *)

val fold :
  t ->
  snapshot:Snapshot.identity ->
  init:'a ->
  f:('a -> Pattern.t -> Match_relation.t -> 'a) ->
  'a
(** Fold over the live entries of one snapshot (iteration order
    unspecified, recency untouched).  Containment reuse is the one
    caller: the engine scans these for a cached {e superset} query when
    the exact fingerprint misses.  The relation is the stored one — do
    not mutate it.  [f] runs with the cache lock held: it must not
    call back into this cache. *)

val clear : t -> unit
(** Drop every entry and reset the hit/miss counters (the eviction
    counter is cumulative over the cache's lifetime). *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int
(** Entries dropped by LRU pressure (not by {!clear}). *)
