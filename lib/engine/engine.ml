open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
open Expfinder_storage
open Expfinder_telemetry

let src = Logs.Src.create "expfinder.engine" ~doc:"ExpFinder query engine"

module Log = (val Logs.src_log src : Logs.LOG)

type provenance = From_cache | From_compressed | Direct

let provenance_name = function
  | From_cache -> "cache"
  | From_compressed -> "compressed"
  | Direct -> "direct"

let m_queries = Metrics.counter "engine.queries"

let m_from_cache = Metrics.counter "engine.answers.cache"

let m_from_compressed = Metrics.counter "engine.answers.compressed"

let m_direct = Metrics.counter "engine.answers.direct"

let m_topk = Metrics.counter "engine.topk_queries"

let m_containment = Metrics.counter "engine.containment_hits"

let m_differential = Metrics.counter "engine.differential_checks"

let m_update_batches = Metrics.counter "engine.update_batches"

let m_updates_effective = Metrics.counter "engine.updates_effective"

let m_snapshot_rebuilds = Metrics.counter "engine.snapshot_rebuilds"

let m_batches = Metrics.counter "engine.batches"

let m_batch_queries = Metrics.counter "engine.batch_queries"

let provenance_counter = function
  | From_cache -> m_from_cache
  | From_compressed -> m_from_compressed
  | Direct -> m_direct

type profile = {
  query : string;  (** the pattern fingerprint *)
  provenance : provenance;
  span : Span.t;
  counters : (string * int) list;
  trace_id : string;  (** "" when the request carried no trace context *)
}

type answer = {
  relation : Match_relation.t;
  total : bool;
  pairs : int;
  provenance : provenance;
  profile : profile option;
  digest : string Lazy.t;
}

type expert = { node : int; name : string option; rank : Ranking.rank }

(* Concurrency model (multicore serving):

   - [epoch] is the one publication cell.  It holds an immutable record:
     the snapshot, the registered patterns, the registered kernels
     computed on that snapshot and the compressed graph built on it.
     Readers pin all of it with a single [Atomic.get] and never block on
     writers; a record's kernels and compressed graph are on its own
     snapshot by construction, so readers check no identity.
   - [writer] serializes everything that advances or republishes the
     epoch: [apply_updates], [register]/[unregister] and the compression
     switches, on whichever domain calls them.  The trackers behind the
     record ([trackers], [inc_compress]) are read and written only under
     it, and an update batch emits its request event before releasing
     it, so the query log lists batches in the order they were applied.
   - The engine owns its digraph: every mutation goes through
     [apply_updates].  A digraph whose version has moved past the
     published epoch was mutated behind the engine's back; the writer
     refuses to work on it ([epoch_locked]) and readers keep serving the
     last published epoch.
   - A tracker never mutates a kernel it has returned
     ([Incremental.kernel]), and a sync builds a fresh [Compress.t], so
     a published record stays valid while the writer syncs the next
     one.  Readers copy the kernel they serve: answers are mutable
     relations handed to callers. *)
(* Contention observability for the model above (registry cells are
   internally atomic/guarded):
     [engine.snapshot.stale_reads]   reads served the pinned pre-update
                                     epoch because a write was in
                                     flight
     [engine.snapshot.staleness]     epochs behind (version - epoch) at
                                     the last stale read; 0 once the
                                     writer publishes
     [engine.writer.backlog]         update batches waiting for [writer]
     [engine.epoch.publish_lag_ms]   apply-to-publication latency, the
                                     maintenance sync included *)
type contention_metrics = {
  m_stale_reads : Counter.t;
  g_staleness : Gauge.t;
  g_backlog : Gauge.t;
  h_publish_lag : Histogram.t;
}

(* One published epoch: the snapshot and everything maintained on it. *)
type epoch = {
  snap : Snapshot.t;
  registered : Pattern.t list;  (* in registration order *)
  kernels : (string * Match_relation.t) list;  (* fingerprint -> kernel on [snap] *)
  compressed : Compress.t option;  (* built on [snap] *)
}

type t = {
  g : Digraph.t;
  epoch : epoch Atomic.t;
  cache : Cache.t;
  writer : Mutex.t;
  mutable trackers : (string * Incremental.t) list; (* fingerprint-keyed, in order *)
  mutable inc_compress : Inc_compress.t option;
  last_profile : profile option Atomic.t;
  cm : contention_metrics;
}

let create ?cache_capacity g =
  {
    g;
    epoch =
      Atomic.make
        { snap = Snapshot.of_digraph g; registered = []; kernels = []; compressed = None };
    cache = Cache.create ?capacity:cache_capacity ();
    writer = Mutex.create ();
    trackers = [];
    inc_compress = None;
    last_profile = Atomic.make None;
    cm =
      {
        m_stale_reads = Metrics.counter "engine.snapshot.stale_reads";
        g_staleness = Metrics.gauge "engine.snapshot.staleness";
        g_backlog = Metrics.gauge "engine.writer.backlog";
        h_publish_lag = Metrics.histogram "engine.epoch.publish_lag_ms";
      };
  }

let graph t = t.g

(* Publish [snap] with what the trackers hold on it, all of which is on
   [snap].  Requires [t.writer] held. *)
let publish t snap =
  Atomic.set t.epoch
    {
      snap;
      registered = List.map (fun (_, inc) -> Incremental.pattern inc) t.trackers;
      kernels = List.map (fun (fp, inc) -> (fp, Incremental.kernel inc)) t.trackers;
      compressed = Option.map Inc_compress.current t.inc_compress;
    }

(* The writer's ownership check: the published epoch, provided the
   digraph is still at its version.  Requires [t.writer] held. *)
let epoch_locked t =
  let e = Atomic.get t.epoch in
  if Digraph.version t.g <> Snapshot.epoch e.snap then
    invalid_arg "Engine: digraph mutated outside apply_updates";
  e

(* A reader's epoch: one atomic load.  A digraph version ahead of it
   means an update is in flight (or the digraph was mutated behind the
   engine's back): the reader serves the pinned epoch and counts it. *)
let current_epoch t =
  let e = Atomic.get t.epoch in
  let behind = Digraph.version t.g - Snapshot.epoch e.snap in
  if behind > 0 then begin
    Counter.incr t.cm.m_stale_reads;
    Gauge.set t.cm.g_staleness behind
  end;
  e

let snapshot t = (current_epoch t).snap

(* Direct evaluation goes through the planner: candidate ordering with
   early exit, sink pruning, and strategy selection (§III "optimized
   query plans"). *)
let run_direct pattern snap = Planner.run pattern snap

(* Containment reuse: when the exact fingerprint misses but the cache
   holds the *total* kernel of a superset query Q' (every node of the
   incoming pattern related to a Q'-node by the containment simulation,
   see {!Pattern_analysis.superset_map}), that kernel bounds every
   candidate set of the incoming query from above.  Filter it by the
   pattern's own label/predicate specs and refine below it — the exact
   kernel, without scanning the data graph for candidates. *)
let from_containment t pattern ~snap =
  let sid = Snapshot.id snap in
  Cache.fold t.cache ~snapshot:sid ~init:None ~f:(fun acc sup relation ->
      match acc with
      | Some _ -> acc
      | None ->
        if
          Match_relation.is_total relation
          && not (Pattern.equal sup pattern)
        then
          Pattern_analysis.superset_map ~sub:pattern ~sup
          |> Option.map (fun map -> (map, relation))
        else None)
  |> Option.map (fun (map, sup_relation) ->
         let initial =
           Match_relation.create ~pattern_size:(Pattern.size pattern)
             ~graph_size:(Snapshot.node_count snap)
         in
         (* Each (u, v) is added once: [matches] lists distinct nodes. *)
         let seeded = ref 0 in
         for u = 0 to Pattern.size pattern - 1 do
           List.iter
             (fun v ->
               if Pattern.matches_node pattern u (Snapshot.label snap v) (Snapshot.attrs snap v)
               then begin
                 Match_relation.add initial u v;
                 incr seeded
               end)
             (Match_relation.matches sup_relation map.(u))
         done;
         with_span "containment_refine"
           ~attrs:[ ("seed_pairs", string_of_int !seeded) ]
           (fun () ->
             (if Pattern.is_simulation_pattern pattern then Simulation.run_constrained
              else Bounded_sim.run_constrained)
               pattern snap ~initial ~mutable_set:None))

(* The untraced core of [evaluate]: cache -> registered kernel ->
   compressed -> cached superset (containment) -> planner, returning the
   snapshot it evaluated on, the relation, the memo of the cache entry
   it was served from or stored into (its pair count and digest), where
   it came from, a strategy label for the flight recorder, and whether
   this call just computed it via the direct path (the differential
   checker re-verifies everything else).  The kernel and the compressed graph come from the
   same pinned epoch [e] as the snapshot. *)
let evaluate_inner t e pattern =
  let snap = e.snap in
  let sid = Snapshot.id snap in
  match
    with_span "cache.lookup" (fun () -> Cache.find t.cache pattern ~snapshot:sid)
  with
  | Some (relation, memo) -> (snap, relation, memo, From_cache, "cache", false)
  | None ->
    let relation, provenance, strategy, via_direct =
      match List.assoc_opt (Pattern.fingerprint pattern) e.kernels with
      | Some kernel -> (Match_relation.copy kernel, Direct, "registered", false)
      | None -> (
        match e.compressed with
        | Some c when Compress.supports c pattern ->
          (Compress.evaluate c pattern, From_compressed, "compressed", false)
        | _ -> (
          match from_containment t pattern ~snap with
          | Some relation ->
            Counter.incr m_containment;
            (relation, From_cache, "containment", false)
          | None ->
            let relation, plan = Planner.run_with_plan pattern snap in
            ( relation,
              Direct,
              "direct/" ^ Planner.strategy_name plan.Planner.strategy,
              true )))
    in
    let memo = Cache.store_memo t.cache pattern ~snapshot:sid relation in
    (snap, relation, memo, provenance, strategy, via_direct)

(* EXPFINDER_CHECK=1 sanitizer: any answer that did not just come out of
   the direct path is re-evaluated directly and compared (as a query
   answer: non-total kernels all denote the empty M(Q,G)), and the
   served relation is run through the {!Verify} pair-validity and
   maximality spot checks, both on [snap], the snapshot the answer was
   evaluated on, and its memoised pair count is recounted.  Raises on
   divergence — the point is to fail tests and benches loudly. *)
let differential_check ~snap pattern relation memo provenance ~via_direct =
  if Verify.differential () then begin
    Counter.incr m_differential;
    try
      if Cache.pairs memo <> Match_relation.total relation then
        failwith
          (Printf.sprintf "EXPFINDER_CHECK: memoised pair count %d of query %s is not %d"
             (Cache.pairs memo) (Pattern.fingerprint pattern) (Match_relation.total relation));
      if not via_direct then begin
        let direct = with_span "verify.differential" (fun () -> run_direct pattern snap) in
        if not (Verify.semantically_equal relation direct) then
          failwith
            (Printf.sprintf
               "EXPFINDER_CHECK: %s answer for query %s diverges from direct evaluation \
                (%d vs %d pairs)"
               (provenance_name provenance) (Pattern.fingerprint pattern)
               (Match_relation.total relation) (Match_relation.total direct))
      end;
      Verify.check_exn pattern snap relation
    with e ->
      (* A failed self-check is exactly what the flight recorder is for:
         dump the recent-query ring before propagating. *)
      Format.eprintf "EXPFINDER_CHECK failure; flight recorder dump:@.%a@."
        Recorder.pp ();
      raise e
  end

(* The profile of a call that owned its trace: its root span and the
   counter deltas the caller measured over it. *)
let record_profile t ~trace ~query ~provenance ~counters span =
  let p = { query; provenance; span; counters; trace_id = trace.Trace.trace_id } in
  Atomic.set t.last_profile (Some p);
  p

(* Finished-request bookkeeping, one call per exit path of the three
   op classes: the duration since [start] and the counter delta since
   [before], tagged with [snap], the snapshot the request ran on, go to
   every telemetry sink at once.  Returns that delta, which is also the
   request's profile counters. *)
let finished ~snap ~kind ~trace ~start ~before ~query ~strategy ?(pairs = 0) ?digest ~payload
    ?error ?root () =
  let duration_ms = (now_us () -. start) /. 1000.0 in
  let counters = Metrics.delta ~before ~after:(Metrics.counters_snapshot ()) in
  Request.finish ~kind ~trace ~query ~strategy ~duration_ms ~counters ~pairs ?digest ~payload
    ?error:(Option.map Printexc.to_string error)
    ?root ~graph_id:(Snapshot.graph_id snap) ~epoch:(Snapshot.epoch snap) ();
  counters

(* The combined answer digest of a batch: MD5 over the per-answer
   digests in input order — replay recomputes the same fold, so one
   field verifies the whole batch. *)
let batch_digest answers =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun a -> Lazy.force a.digest) answers)))

(* [evaluate], also returning the snapshot the answer was evaluated on:
   a caller that reads the graph again for the same answer ([top_k],
   [result_graph]) must read this one, not a later epoch. *)
let evaluate_pinned ?(trace = Trace.ambient) t pattern =
  (* Request bookkeeping runs on every request (unlike profiles):
     snapshot the counter registry and the clock around the whole
     query. *)
  let before = Metrics.counters_snapshot () in
  let start = now_us () in
  Counter.incr m_queries;
  let fp = Pattern.fingerprint pattern in
  let payload = lazy (Json.Str (Pattern_io.to_string pattern)) in
  let e = current_epoch t in
  match
    Trace.collect trace ~attrs:[ ("query", fp) ] "evaluate" (fun () ->
        let snap, relation, memo, provenance, strategy, via_direct =
          evaluate_inner t e pattern
        in
        differential_check ~snap pattern relation memo provenance ~via_direct;
        Counter.incr (provenance_counter provenance);
        annotate "provenance" (provenance_name provenance);
        annotate_int "pairs" (Cache.pairs memo);
        (snap, relation, memo, provenance, strategy))
  with
  | exception exn ->
    ignore
      (finished ~snap:e.snap ~kind:Qlog.Query ~trace ~start ~before ~query:fp
         ~strategy:"error" ~payload ~error:exn ());
    raise exn
  | (snap, relation, memo, provenance, strategy), root ->
    let digest = lazy (Cache.digest memo) in
    let counters =
      finished ~snap ~kind:Qlog.Query ~trace ~start ~before ~query:fp ~strategy
        ~pairs:(Cache.pairs memo) ~digest ~payload ?root ()
    in
    let profile = Option.map (record_profile t ~trace ~query:fp ~provenance ~counters) root in
    Log.debug (fun m ->
        m "evaluate %s: %d pairs via %s" fp (Cache.pairs memo) (provenance_name provenance));
    ( {
        relation;
        total = Match_relation.is_total relation;
        pairs = Cache.pairs memo;
        provenance;
        profile;
        digest;
      },
      snap )

let evaluate ?trace t pattern = fst (evaluate_pinned ?trace t pattern)

(* ------------------------------------------------------------------ *)
(* Batched evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* One batch pins one epoch [e], dedupes its members by fingerprint and
   answers each distinct member through [evaluate_inner], the route a
   lone {!evaluate} takes: cache -> registered kernel -> compressed ->
   containment -> planner.  Supersets go first, so a later member
   contained in an earlier one is answered by containment reuse from the
   kernel just stored.  A duplicate is served a copy of its
   representative's answer, as a cache hit. *)
let evaluate_batch ?(trace = Trace.ambient) t patterns =
  Counter.incr m_batches;
  let before = Metrics.counters_snapshot () in
  let start = now_us () in
  let e = current_epoch t in
  let snap = e.snap in
  let arr = Array.of_list patterns in
  let n = Array.length arr in
  Counter.add m_batch_queries n;
  let label = Printf.sprintf "batch:%d" n in
  let results : (Match_relation.t * Cache.memo * provenance) option array =
    Array.make n None
  in
  let run_batch () =
    Trace.collect trace
      ~attrs:[ ("queries", string_of_int n) ]
      "evaluate_batch"
      (fun () ->
        (* [reps] holds the first index of each distinct fingerprint. *)
        let seen = Hashtbl.create 16 in
        let reps = ref [] in
        Array.iteri
          (fun i pattern ->
            let fp = Pattern.fingerprint pattern in
            if not (Hashtbl.mem seen fp) then begin
              Hashtbl.add seen fp i;
              reps := i :: !reps
            end)
          arr;
        let reps = Array.of_list (List.rev !reps) in
        (* Supersets first: [contains q1 q2] is transitive, so the
           count of batch members a query contains increases strictly
           along the strict containment order — descending count is a
           topological order of the containment DAG. *)
        let contained_count r =
          Array.fold_left
            (fun acc r' ->
              if r <> r' && Pattern_analysis.contains arr.(r') arr.(r) then acc + 1
              else acc)
            0 reps
        in
        let order = Array.init (Array.length reps) Fun.id in
        let scores = Array.map contained_count reps in
        Array.sort (fun a b -> compare scores.(b) scores.(a)) order;
        Array.iter
          (fun j ->
            let i = reps.(j) in
            let pattern = arr.(i) in
            let _, relation, memo, provenance, _, via_direct = evaluate_inner t e pattern in
            differential_check ~snap pattern relation memo provenance ~via_direct;
            Counter.incr (provenance_counter provenance);
            results.(i) <- Some (relation, memo, provenance))
          order;
        Array.iteri
          (fun i pattern ->
            if results.(i) = None then
              match results.(Hashtbl.find seen (Pattern.fingerprint pattern)) with
              | Some (relation, memo, _) ->
                Counter.incr m_from_cache;
                results.(i) <- Some (Match_relation.copy relation, memo, From_cache)
              | None -> assert false)
          arr)
  in
  (* The replayable payload is the input list, duplicates included. *)
  let payload =
    lazy (Json.Arr (List.map (fun q -> Json.Str (Pattern_io.to_string q)) patterns))
  in
  match run_batch () with
  | exception e ->
    ignore
      (finished ~snap ~kind:Qlog.Batch ~trace ~start ~before ~query:label ~strategy:"batch/error"
         ~payload ~error:e ());
    raise e
  | (), root ->
    let answers =
      List.init n (fun i ->
          match results.(i) with
          | Some (relation, memo, provenance) ->
            (* Per-answer profiles are not split out of the shared batch
               run; the whole-batch profile is available via
               [last_profile]. *)
            {
              relation;
              total = Match_relation.is_total relation;
              pairs = Cache.pairs memo;
              provenance;
              profile = None;
              digest = lazy (Cache.digest memo);
            }
          | None -> assert false)
    in
    let counters =
      finished ~snap ~kind:Qlog.Batch ~trace ~start ~before ~query:label ~strategy:"batch"
        ~pairs:(List.fold_left (fun acc a -> acc + a.pairs) 0 answers)
        ~digest:(lazy (batch_digest answers))
        ~payload ?root ()
    in
    ignore
      (Option.map (record_profile t ~trace ~query:label ~provenance:Direct ~counters) root
        : profile option);
    Log.debug (fun m -> m "evaluate_batch: %d queries on %a" n Snapshot.pp_id snap);
    answers

let result_graph t pattern =
  let answer, snap = evaluate_pinned t pattern in
  let relation =
    if answer.total then answer.relation
    else
      Match_relation.create ~pattern_size:(Pattern.size pattern)
        ~graph_size:(Snapshot.node_count snap)
  in
  Result_graph.build pattern snap relation

(* A top-K call is not a finished request of its own (its [evaluate]
   is), so its profile takes its own counter snapshots, and only when
   [enabled ()]: the ambient context records no span otherwise. *)
let top_k t pattern ~k =
  Counter.incr m_topk;
  let fp = Pattern.fingerprint pattern in
  let before = if enabled () then Metrics.counters_snapshot () else [] in
  let (experts, provenance), root =
    Trace.collect Trace.ambient
      ~attrs:[ ("query", fp); ("k", string_of_int k) ]
      "topk"
      (fun () ->
        let answer, snap = evaluate_pinned t pattern in
        if not answer.total then ([], answer.provenance)
        else begin
          let gr =
            with_span "result_graph" (fun () ->
                Result_graph.build pattern snap answer.relation)
          in
          let output_matches = Match_relation.matches answer.relation (Pattern.output pattern) in
          let experts =
            with_span "rank"
              ~attrs:[ ("output_matches", string_of_int (List.length output_matches)) ]
              (fun () ->
                Ranking.top_k gr ~output_matches ~k
                |> List.map (fun (node, rank) ->
                       let name =
                         match Attrs.find (Snapshot.attrs snap node) "name" with
                         | Some (Attr.String s) -> Some s
                         | Some _ | None -> None
                       in
                       { node; name; rank }))
          in
          (experts, answer.provenance)
        end)
  in
  Option.iter
    (fun span ->
      let counters = Metrics.delta ~before ~after:(Metrics.counters_snapshot ()) in
      ignore (record_profile t ~trace:Trace.ambient ~query:fp ~provenance ~counters span : profile))
    root;
  experts

let last_profile t = Atomic.get t.last_profile

let pp_profile ppf p =
  Format.fprintf ppf "profile: query %s, answered via %s@." p.query
    (provenance_name p.provenance);
  Span.pp_tree ppf p.span;
  match p.counters with
  | [] -> ()
  | counters ->
    Format.fprintf ppf "counters:@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-38s %d@." name v) counters

let profile_json (p : profile) =
  Json.Obj
    [
      ("query", Json.Str p.query);
      ("provenance", Json.Str (provenance_name p.provenance));
      ("trace_id", Json.Str p.trace_id);
      ("span", Span.to_json p.span);
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) p.counters) );
      (* The flight-recorder tail at serialization time: the profile of a
         slow query ships with the queries that led up to it. *)
      ("recorder", Recorder.to_json ());
    ]

(* The switches below run under the writer, so no update batch lands
   between the epoch they read and the record they publish on it. *)
let republish t = publish t (Atomic.get t.epoch).snap

let enable_compression ?atoms t =
  Mutex.protect t.writer (fun () ->
      t.inc_compress <- Inc_compress.create_if_pays ?atoms (epoch_locked t).snap;
      republish t)

let disable_compression t =
  Mutex.protect t.writer (fun () ->
      t.inc_compress <- None;
      republish t)

let compression t = (Atomic.get t.epoch).compressed

(* The query is evaluated on the current epoch, and no update batch
   lands before the tracker is registered to sync from it. *)
let register t pattern =
  let fp = Pattern.fingerprint pattern in
  Mutex.protect t.writer (fun () ->
      if not (List.mem_assoc fp t.trackers) then begin
        let inc = Incremental.create ~published:(epoch_locked t).snap pattern t.g in
        t.trackers <- t.trackers @ [ (fp, inc) ];
        republish t
      end)

let unregister t pattern =
  let fp = Pattern.fingerprint pattern in
  Mutex.protect t.writer (fun () ->
      t.trackers <- List.filter (fun (fp', _) -> fp' <> fp) t.trackers;
      republish t)

let registered t = (Atomic.get t.epoch).registered

(* Runs with [t.writer] held: one update batch at a time mutates the
   digraph, rebuilds the snapshot from it with [Snapshot.of_digraph]
   like every other epoch, syncs the compressed graph and every tracker
   on that snapshot, and only then publishes the whole record;
   concurrent readers keep serving their pinned epoch throughout.
   Returns the reports, the effective count and the snapshot the batch
   leaves published. *)
let apply_updates_locked t updates =
  let current = epoch_locked t in
  Counter.incr m_update_batches;
  let t_apply = now_us () in
  let effective = Update.apply_batch_filtered t.g updates in
  Counter.add m_updates_effective (List.length effective);
  if effective = [] then
    (* Nothing changed: the epoch, the cache and every maintained
       structure stay as they are. *)
    ( List.map
        (fun _ ->
          { Incremental.effective = 0; area = 0; iterations = 0; added = []; removed = [] })
        t.trackers,
      0,
      current.snap )
  else begin
    let published = Snapshot.of_digraph t.g in
    Counter.incr m_snapshot_rebuilds;
    (* A compressed graph that no longer pays is dropped.  A registered
       query that recomputes evaluates on [published] rather than
       building its own CSR. *)
    Option.iter
      (fun inc ->
        match
          Inc_compress.sync_if_pays inc ~snapshot:published ~effective:(List.length effective)
            effective
        with
        | Some _ -> ()
        | None -> t.inc_compress <- None)
      t.inc_compress;
    let reports =
      List.map (fun (_, inc) -> Incremental.sync_applied ~published inc ~effective) t.trackers
    in
    Log.debug (fun m ->
        m "apply_updates: %d effective -> %a, %d registered queries, compression %s"
          (List.length effective) Snapshot.pp_id published (List.length t.trackers)
          (if t.inc_compress = None then "off" else "maintained"));
    (* The epoch publication point: the record is complete before this
       store, so any reader that picks it up sees a coherent post-update
       view. *)
    publish t published;
    (* Publication lag: how long readers were pinned to the previous
       epoch, from ΔG application to the store above. *)
    Histogram.observe t.cm.h_publish_lag ((now_us () -. t_apply) /. 1000.0);
    Gauge.set t.cm.g_staleness 0;
    (* Results for old epochs are unreachable (keys include the
       identity), but drop them eagerly to keep the cache useful. *)
    Cache.clear t.cache;
    (reports, List.length effective, published)
  end

(* The batch runs on the calling domain.  Its request event is emitted
   before [writer] is released, so the query log and the flight
   recorder list update batches in the order they were applied: replay
   applies them in log order. *)
let apply_updates ?(trace = Trace.ambient) t updates =
  let before = Metrics.counters_snapshot () in
  let start = now_us () in
  (* The replayable payload is the *input* batch: no-ops are dropped at
     apply time, so replay reproduces the same filtering. *)
  let payload = lazy (Json.Arr (List.map Update.to_json updates)) in
  Gauge.add t.cm.g_backlog 1;
  Mutex.protect t.writer (fun () ->
      Gauge.add t.cm.g_backlog (-1);
      match
        Trace.collect trace
          ~attrs:[ ("updates", string_of_int (List.length updates)) ]
          "apply_updates"
          (fun () -> apply_updates_locked t updates)
      with
      | exception e ->
        ignore
          (finished ~snap:(Atomic.get t.epoch).snap ~kind:Qlog.Update ~trace ~start ~before
             ~query:"update" ~strategy:"update/error" ~payload ~error:e ());
        raise e
      | (reports, effective_n, snap), root ->
        ignore
          (finished ~snap ~kind:Qlog.Update ~trace ~start ~before ~query:"update"
             ~strategy:"update" ~pairs:effective_n ~payload ?root ());
        reports)

let cache_counters t = (Cache.hits t.cache, Cache.misses t.cache, Cache.evictions t.cache)

let explain t pattern = Planner.explain pattern (Planner.plan pattern (snapshot t))

(* EXPLAIN ANALYZE bypasses the cache/registered/compressed fast paths on
   purpose: the point is to execute the plan and confront its estimates
   with the candidate sets it actually materialised. *)
let explain_analyze t pattern =
  let snap = snapshot t in
  let _relation, plan = Planner.run_with_plan pattern snap in
  Planner.explain_analyze pattern plan
