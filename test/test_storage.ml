(* Storage: the query-result cache. *)

open Expfinder_graph
open Expfinder_core
open Expfinder_storage
module Collab = Expfinder_workload.Collab

let sample_relation () =
  Match_relation.of_pairs ~pattern_size:2 ~graph_size:9 [ (0, 1); (1, 4) ]

(* Two identities of the same graph at consecutive epochs. *)
let sid_pair () =
  let g = Collab.graph () in
  let s0 = Snapshot.id (Snapshot.of_digraph g) in
  ignore (Digraph.add_edge g 0 3 : bool);
  let s1 = Snapshot.id (Snapshot.of_digraph g) in
  (s0, s1)

(* --- Cache ----------------------------------------------------------- *)

let test_cache_hit_and_miss () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, sid1 = sid_pair () in
  Alcotest.(check bool) "cold miss" true (Cache.find cache q ~snapshot:sid0 = None);
  Cache.store cache q ~snapshot:sid0 (sample_relation ());
  (match Cache.find cache q ~snapshot:sid0 with
  | Some (r, _) ->
    Alcotest.(check bool) "hit returns stored" true (Match_relation.equal r (sample_relation ()))
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other epoch misses" true (Cache.find cache q ~snapshot:sid1 = None);
  Alcotest.(check (pair int int)) "stats" (1, 2) (Cache.hits cache, Cache.misses cache)

let test_cache_copy_does_not_alias () =
  (* Regression: Digraph.copy resets the version to 0, so a bare-version
     key would serve a copy the original's cached results.  Identities
     carry a process-unique graph id, so the copy must miss. *)
  let cache = Cache.create () in
  let q = Collab.query () in
  let base = Collab.graph () in
  (* Both copies restart at version 0: a bare-version key cannot tell
     them apart, the graph id can. *)
  let g = Digraph.copy base in
  let copy = Digraph.copy base in
  Alcotest.(check bool) "copy has a fresh graph id" true
    (Digraph.graph_id copy <> Digraph.graph_id g);
  let sid = Snapshot.id (Snapshot.of_digraph g) in
  let sid_copy = Snapshot.id (Snapshot.of_digraph copy) in
  Alcotest.(check int) "same epoch" sid.Snapshot.epoch sid_copy.Snapshot.epoch;
  Cache.store cache q ~snapshot:sid (sample_relation ());
  Alcotest.(check bool) "original hits" true (Cache.find cache q ~snapshot:sid <> None);
  Alcotest.(check bool) "copy misses" true (Cache.find cache q ~snapshot:sid_copy = None)

let test_cache_is_defensive () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, _ = sid_pair () in
  let r = sample_relation () in
  Cache.store cache q ~snapshot:sid0 r;
  Match_relation.remove r 0 1;
  (* Mutating the original must not affect the cached copy... *)
  (match Cache.find cache q ~snapshot:sid0 with
  | Some (cached, _) ->
    Alcotest.(check bool) "stored copy intact" true (Match_relation.mem cached 0 1)
  | None -> Alcotest.fail "expected hit");
  (* ...nor mutating a returned hit. *)
  (match Cache.find cache q ~snapshot:sid0 with
  | Some (hit, _) -> Match_relation.remove hit 1 4
  | None -> Alcotest.fail "expected hit");
  match Cache.find cache q ~snapshot:sid0 with
  | Some (cached, _) -> Alcotest.(check bool) "hit copy intact" true (Match_relation.mem cached 1 4)
  | None -> Alcotest.fail "expected hit"

let test_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let q1 = Collab.query () and q2 = Collab.q1 () and q3 = Collab.q2 () in
  let sid0, _ = sid_pair () in
  Cache.store cache q1 ~snapshot:sid0 (sample_relation ());
  Cache.store cache q2 ~snapshot:sid0 (sample_relation ());
  (* Touch q1 so q2 is the LRU entry, then insert q3. *)
  ignore (Cache.find cache q1 ~snapshot:sid0 : (Match_relation.t * Cache.memo) option);
  Cache.store cache q3 ~snapshot:sid0 (sample_relation ());
  Alcotest.(check int) "capacity respected" 2 (Cache.length cache);
  Alcotest.(check int) "eviction counted" 1 (Cache.evictions cache);
  Alcotest.(check bool) "q1 kept" true (Cache.find cache q1 ~snapshot:sid0 <> None);
  Alcotest.(check bool) "q2 evicted" true (Cache.find cache q2 ~snapshot:sid0 = None);
  Alcotest.(check bool) "q3 kept" true (Cache.find cache q3 ~snapshot:sid0 <> None);
  (* The eviction counter survives [clear]: it is cumulative. *)
  Cache.clear cache;
  Alcotest.(check int) "evictions cumulative across clear" 1 (Cache.evictions cache)

let test_cache_invalidation () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, sid1 = sid_pair () in
  Cache.store cache q ~snapshot:sid0 (sample_relation ());
  Cache.store cache q ~snapshot:sid1 (sample_relation ());
  Cache.invalidate_snapshot cache sid0;
  Alcotest.(check bool) "old epoch gone" true (Cache.find cache q ~snapshot:sid0 = None);
  Alcotest.(check bool) "new epoch kept" true (Cache.find cache q ~snapshot:sid1 <> None);
  Cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Cache.length cache);
  Alcotest.(check (pair int int)) "stats reset" (0, 0) (Cache.hits cache, Cache.misses cache)

(* --- Entry memo ------------------------------------------------------ *)

let hit cache q sid =
  match Cache.find cache q ~snapshot:sid with
  | Some h -> h
  | None -> Alcotest.fail "expected hit"

let test_digest_memo_reused () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, _ = sid_pair () in
  let stored = Cache.store_memo cache q ~snapshot:sid0 (sample_relation ()) in
  Alcotest.(check int) "store counts the pairs" 2 (Cache.pairs stored);
  let r1, m1 = hit cache q sid0 in
  let d1 = Cache.digest m1 in
  Alcotest.(check string) "memo is the relation's digest" (Match_relation.digest r1) d1;
  Alcotest.(check int) "hit carries the stored count" (Match_relation.total r1) (Cache.pairs m1);
  (* The store's memo and every later hit's are the same entry's: the
     string is computed once and shared. *)
  Alcotest.(check bool) "store's memo shares the digest" true (Cache.digest stored == d1);
  let r2, m2 = hit cache q sid0 in
  Alcotest.(check bool) "second hit reuses the stored digest" true (Cache.digest m2 == d1);
  Alcotest.(check (pair int int)) "memo reads are not hits or misses" (2, 0)
    (Cache.hits cache, Cache.misses cache);
  (* Mutating a returned copy leaves the stored relation, and its memo,
     as they were. *)
  Match_relation.remove r2 0 1;
  Alcotest.(check bool) "mutated copy's memo unchanged" true (Cache.digest m2 == d1);
  Alcotest.(check bool) "the memo is not the mutated copy's digest" true
    (Match_relation.digest r2 <> d1);
  let _, m3 = hit cache q sid0 in
  Alcotest.(check bool) "next hit's digest unchanged" true (Cache.digest m3 == d1);
  Alcotest.(check int) "next hit's count unchanged" 2 (Cache.pairs m3)

let test_digest_memo_dropped () =
  let cache = Cache.create () in
  let q = Collab.query () in
  let sid0, sid1 = sid_pair () in
  let r = sample_relation () in
  let d0 = Cache.digest (Cache.store_memo cache q ~snapshot:sid0 r) in
  Alcotest.(check bool) "no entry under another snapshot" true
    (Cache.find cache q ~snapshot:sid1 = None);
  Cache.clear cache;
  Alcotest.(check bool) "cleared entry is gone" true (Cache.find cache q ~snapshot:sid0 = None);
  Cache.store cache q ~snapshot:sid0 r;
  let d1 = Cache.digest (snd (hit cache q sid0)) in
  Alcotest.(check string) "same content, same digest" d0 d1;
  Alcotest.(check bool) "recomputed after clear" true (d1 != d0);
  Cache.invalidate_snapshot cache sid0;
  Alcotest.(check bool) "invalidated entry is gone" true
    (Cache.find cache q ~snapshot:sid0 = None);
  Cache.store cache q ~snapshot:sid0 r;
  Alcotest.(check bool) "recomputed after invalidation" true
    (Cache.digest (snd (hit cache q sid0)) != d1)

let () =
  Alcotest.run "storage"
    [
      ( "cache",
        [
          Alcotest.test_case "hit and miss" `Quick test_cache_hit_and_miss;
          Alcotest.test_case "copy does not alias" `Quick test_cache_copy_does_not_alias;
          Alcotest.test_case "defensive copies" `Quick test_cache_is_defensive;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
          Alcotest.test_case "digest memo reused" `Quick test_digest_memo_reused;
          Alcotest.test_case "digest memo dropped" `Quick test_digest_memo_dropped;
        ] );
    ]
