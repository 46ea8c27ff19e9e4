open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_telemetry

(* Process-wide registered counters (aggregated over every cache
   instance) alongside per-instance counters: both are bumped on the
   same code paths, so the registry view can never drift from
   [hits]/[misses]/[evictions]. *)
let m_hits = Metrics.counter "cache.hits"

let m_misses = Metrics.counter "cache.misses"

let m_evictions = Metrics.counter "cache.evictions"

let m_stores = Metrics.counter "cache.stores"

(* An entry's relation is never mutated: [store] copies it in, [find]
   copies it out and [fold] hands it out read-only.  That makes [pairs]
   and [digest] safe memos of [Match_relation.total relation] and
   [Match_relation.digest relation]: they cannot go stale, and a caller
   holding the entry (a [memo]) reads them without another lookup, even
   after the entry has left the table. *)
type entry = {
  key : string * Snapshot.identity;
  pattern : Pattern.t;
  relation : Match_relation.t;
  pairs : int;
  mutable stamp : int;  (* guarded by [cm] *)
  digest : string option Atomic.t;
}

type memo = entry

type t = {
  capacity : int;
  table : (string * Snapshot.identity, entry) Hashtbl.t;
  mutable clock : int;
  (* Serializes every table/clock/stamp access: with the serving pool,
     any worker domain may probe or store concurrently with another
     worker clearing it on update.  Probes copy the relation while holding
     the lock, so a returned relation is never shared. *)
  cm : Mutex.t;
  hit_count : Counter.t;
  miss_count : Counter.t;
  eviction_count : Counter.t;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Cache.create";
  {
    capacity;
    table = Hashtbl.create capacity;
    clock = 0;
    cm = Mutex.create ();
    hit_count = Counter.create "cache.hits";
    miss_count = Counter.create "cache.misses";
    eviction_count = Counter.create "cache.evictions";
  }

let locked t f =
  Mutex.lock t.cm;
  match f () with
  | r ->
    Mutex.unlock t.cm;
    r
  | exception e ->
    Mutex.unlock t.cm;
    raise e

let capacity t = t.capacity

let length t = locked t (fun () -> Hashtbl.length t.table)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let key_of pattern sid = (Pattern.fingerprint pattern, sid)

let find t pattern ~snapshot =
  locked t (fun () ->
      match Hashtbl.find_opt t.table (key_of pattern snapshot) with
      | Some entry ->
        entry.stamp <- tick t;
        Counter.incr t.hit_count;
        Counter.incr m_hits;
        Some (Match_relation.copy entry.relation, entry)
      | None ->
        Counter.incr t.miss_count;
        Counter.incr m_misses;
        None)

(* Callee of [store]; runs under [cm]. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ entry acc ->
        match acc with
        | Some best when best.stamp <= entry.stamp -> acc
        | _ -> Some entry)
      t.table None
  in
  match victim with
  | None -> ()
  | Some entry ->
    Hashtbl.remove t.table entry.key;
    Counter.incr t.eviction_count;
    Counter.incr m_evictions

let store_memo t pattern ~snapshot relation =
  let entry =
    {
      key = key_of pattern snapshot;
      pattern;
      relation = Match_relation.copy relation;
      pairs = Match_relation.total relation;
      stamp = 0;
      digest = Atomic.make None;
    }
  in
  locked t (fun () ->
      if (not (Hashtbl.mem t.table entry.key)) && Hashtbl.length t.table >= t.capacity
      then evict_lru t;
      Counter.incr m_stores;
      entry.stamp <- tick t;
      Hashtbl.replace t.table entry.key entry);
  entry

let store t pattern ~snapshot relation = ignore (store_memo t pattern ~snapshot relation : memo)

let pairs (entry : memo) = entry.pairs

(* The first use digests the stored relation and publishes the string;
   two domains racing on one entry compute the same string and the
   later publish wins harmlessly.  Under EXPFINDER_CHECK every use of a
   memo recomputes it. *)
let digest (entry : memo) =
  match Atomic.get entry.digest with
  | Some d ->
    if Verify.differential () && Match_relation.digest entry.relation <> d then
      failwith
        (Printf.sprintf "EXPFINDER_CHECK: memoised digest %s of query %s is stale" d
           (Pattern.fingerprint entry.pattern));
    d
  | None ->
    let d = Match_relation.digest entry.relation in
    Atomic.set entry.digest (Some d);
    d

let fold t ~snapshot ~init ~f =
  locked t (fun () ->
      Hashtbl.fold
        (fun (_, sid) entry acc ->
          if Snapshot.identity_equal sid snapshot then
            f acc entry.pattern entry.relation
          else acc)
        t.table init)

let invalidate_snapshot t snapshot =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun key _ acc ->
            if Snapshot.identity_equal (snd key) snapshot then key :: acc
            else acc)
          t.table []
      in
      List.iter (Hashtbl.remove t.table) victims)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Counter.reset t.hit_count;
      Counter.reset t.miss_count)

let hits t = Counter.value t.hit_count

let misses t = Counter.value t.miss_count

let evictions t = Counter.value t.eviction_count
