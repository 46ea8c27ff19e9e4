open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
open Expfinder_storage
open Expfinder_telemetry

let src = Logs.Src.create "expfinder.engine" ~doc:"ExpFinder query engine"

module Log = (val Logs.src_log src : Logs.LOG)

type provenance = From_cache | From_compressed | From_index | Direct

let provenance_name = function
  | From_cache -> "cache"
  | From_compressed -> "compressed"
  | From_index -> "ball-index"
  | Direct -> "direct"

let m_queries = Metrics.counter "engine.queries"

let m_from_cache = Metrics.counter "engine.answers.cache"

let m_from_compressed = Metrics.counter "engine.answers.compressed"

let m_from_index = Metrics.counter "engine.answers.ball_index"

let m_direct = Metrics.counter "engine.answers.direct"

let m_topk = Metrics.counter "engine.topk_queries"

let m_containment = Metrics.counter "engine.containment_hits"

let m_differential = Metrics.counter "engine.differential_checks"

let m_update_batches = Metrics.counter "engine.update_batches"

let m_updates_effective = Metrics.counter "engine.updates_effective"

let m_snapshot_rebuilds = Metrics.counter "engine.snapshot_rebuilds"

let m_batches = Metrics.counter "engine.batches"

let m_batch_queries = Metrics.counter "engine.batch_queries"

let h_query_ms = Metrics.histogram "engine.query_ms"

let provenance_counter = function
  | From_cache -> m_from_cache
  | From_compressed -> m_from_compressed
  | From_index -> m_from_index
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
  provenance : provenance;
  profile : profile option;
  digest : string Lazy.t;
}

type expert = { node : int; name : string option; rank : Ranking.rank }

(* Concurrency model (multicore serving):

   - [snap] is the epoch-publication cell.  Readers pin one coherent
     snapshot with a single [Atomic.get] and never block on writers; the
     writer publishes the post-update epoch with [Atomic.set] once the
     new snapshot is fully built.
   - [writer] serializes everything that advances the epoch:
     [apply_updates] and the rebuild-on-external-mutation path of
     [snapshot].
   - [maint] guards the optional structures ([registered] kernels, the
     [compressed] graph, the [ball_index]).  Readers take it with
     [Mutex.try_lock] only: under contention they skip the fast path and
     fall through to containment/planner — every path computes the same
     kernel (EXPFINDER_CHECK enforces it), only provenance and latency
     differ. *)
(* Contention observability for the model above, always-on (registry
   cells are internally atomic/guarded):
     [engine.maint_skips.*]          try-lock losses per structure
     [engine.snapshot.stale_reads]   reads served the pinned pre-update
                                     snapshot because a write was in
                                     flight
     [engine.snapshot.staleness]     epochs behind (version - epoch) at
                                     the last stale read; 0 once the
                                     writer publishes
     [engine.epoch.publish_lag_ms]   apply-to-publication latency *)
type contention_metrics = {
  m_maint_skip_fast : Counter.t;
  m_maint_skip_ball : Counter.t;
  m_stale_reads : Counter.t;
  g_staleness : Gauge.t;
  h_publish_lag : Histogram.t;
}

type t = {
  g : Digraph.t;
  snap : Snapshot.t Atomic.t;
  cache : Cache.t;
  writer : Mutex.t;
  maint : Mutex.t;
  mutable compressed : Inc_compress.t option;
  mutable ball_index : Ball_index.t option;
  mutable ball_radius : int;
  mutable registered : (string * Incremental.t) list; (* fingerprint-keyed, in order *)
  last_profile : profile option Atomic.t;
  cm : contention_metrics;
}

let create ?cache_capacity g =
  {
    g;
    snap = Atomic.make (Snapshot.of_digraph g);
    cache = Cache.create ?capacity:cache_capacity ();
    writer = Mutex.create ();
    maint = Mutex.create ();
    compressed = None;
    ball_index = None;
    ball_radius = 0;
    registered = [];
    last_profile = Atomic.make None;
    cm =
      {
        m_maint_skip_fast =
          Metrics.counter ~always:true "engine.maint_skips.fastpath";
        m_maint_skip_ball =
          Metrics.counter ~always:true "engine.maint_skips.ball_index";
        m_stale_reads = Metrics.counter ~always:true "engine.snapshot.stale_reads";
        g_staleness = Metrics.gauge ~always:true "engine.snapshot.staleness";
        h_publish_lag =
          Metrics.histogram ~always:true "engine.epoch.publish_lag_ms";
      };
  }

let graph t = t.g

(* Maintenance-lock helpers.  [with_maint] blocks (maintenance ops and
   the writer's sync phase); [with_maint_opt] is the readers' variant:
   it never blocks, answering [None] when the lock is contended. *)
let with_maint t f =
  Mutex.lock t.maint;
  match f () with
  | v ->
    Mutex.unlock t.maint;
    v
  | exception e ->
    Mutex.unlock t.maint;
    raise e

let with_maint_opt t ~skip f =
  if not (Mutex.try_lock t.maint) then begin
    Counter.incr skip;
    None
  end
  else
    match f () with
    | v ->
      Mutex.unlock t.maint;
      v
    | exception e ->
      Mutex.unlock t.maint;
      raise e

(* The one place snapshot/digraph agreement is checked: the memoised
   snapshot is current unless the digraph was mutated behind the
   engine's back ([apply_updates] publishes a rebuilt snapshot with
   every effective batch), in which case we pay one full rebuild here.
   Requires [t.writer] held (rebuilding from a digraph another domain is
   mutating would tear). *)
let snapshot_locked t =
  let s = Atomic.get t.snap in
  if Snapshot.epoch s = Digraph.version t.g then s
  else begin
    Counter.incr m_snapshot_rebuilds;
    let s = Snapshot.of_digraph t.g in
    Atomic.set t.snap s;
    s
  end

let snapshot t =
  let s = Atomic.get t.snap in
  if Snapshot.epoch s = Digraph.version t.g then s
  else if Mutex.try_lock t.writer then (
    match snapshot_locked t with
    | s ->
      Mutex.unlock t.writer;
      s
    | exception e ->
      Mutex.unlock t.writer;
      raise e)
  else begin
    (* An update is in flight (version already bumped, new epoch not yet
       published): serve the pinned pre-update snapshot rather than
       block — the update is not "done" from this reader's viewpoint. *)
    Counter.incr t.cm.m_stale_reads;
    Gauge.set t.cm.g_staleness (max 0 (Digraph.version t.g - Snapshot.epoch s));
    s
  end

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
         for u = 0 to Pattern.size pattern - 1 do
           List.iter
             (fun v ->
               if Pattern.matches_node pattern u (Snapshot.label snap v) (Snapshot.attrs snap v)
               then Match_relation.add initial u v)
             (Match_relation.matches sup_relation map.(u))
         done;
         with_span "containment_refine"
           ~attrs:[ ("seed_pairs", string_of_int (Match_relation.total initial)) ]
           (fun () ->
             if Pattern.is_simulation_pattern pattern then
               Simulation.run_constrained pattern snap ~initial ~mutable_set:None
             else
               Bounded_sim.run_constrained ~strategy:Bounded_sim.Naive pattern snap
                 ~initial ~mutable_set:None))

(* The untraced core of [evaluate]: cache -> registered kernel ->
   compressed -> cached superset (containment) -> ball index -> planner,
   returning the snapshot it evaluated on, the relation, where
   it came from, a strategy label for the flight recorder, and whether
   this call just computed it via the direct path (the differential
   checker re-verifies everything else). *)
let evaluate_inner t pattern =
  let snap = snapshot t in
  let sid = Snapshot.id snap in
  match
    with_span "cache.lookup" (fun () -> Cache.find t.cache pattern ~snapshot:sid)
  with
  | Some relation -> (snap, relation, From_cache, "cache", false)
  | None ->
    let fast =
      with_maint_opt t ~skip:t.cm.m_maint_skip_fast (fun () ->
          match List.assoc_opt (Pattern.fingerprint pattern) t.registered with
          | Some inc when Snapshot.identity_equal (Snapshot.id (Incremental.snapshot inc)) sid ->
            Some (Match_relation.copy (Incremental.kernel inc), Direct, "registered")
          | _ -> (
            match t.compressed with
            | Some inc
              when Snapshot.identity_equal (Snapshot.id (Inc_compress.snapshot inc)) sid
                   && Compress.supports (Inc_compress.current inc) pattern ->
              Some
                ( Compress.evaluate (Inc_compress.current inc) pattern,
                  From_compressed,
                  "compressed" )
            | _ -> None))
    in
    let relation, provenance, strategy, via_direct =
      match fast with
      | Some (relation, provenance, strategy) -> (relation, provenance, strategy, false)
      | None -> (
        match from_containment t pattern ~snap with
        | Some relation ->
          Counter.incr m_containment;
          (relation, From_cache, "containment", false)
        | None -> (
          let indexed =
            with_maint_opt t ~skip:t.cm.m_maint_skip_ball (fun () ->
                (* Rebuild the opt-in ball index lazily after updates. *)
                (match t.ball_index with
                | Some idx
                  when not (Snapshot.identity_equal (Ball_index.source idx) sid) ->
                  t.ball_index <-
                    Some
                      (with_span "ball_index.rebuild" (fun () ->
                           Ball_index.build snap ~radius:t.ball_radius))
                | _ -> ());
                match t.ball_index with
                | Some idx when Ball_index.supports idx pattern ->
                  Some (Ball_index.evaluate idx pattern snap)
                | _ -> None)
          in
          match indexed with
          | Some relation -> (relation, From_index, "ball-index", false)
          | None ->
            let relation, plan = Planner.run_with_plan pattern snap in
            ( relation,
              Direct,
              "direct/" ^ Planner.strategy_name plan.Planner.strategy,
              true )))
    in
    Cache.store t.cache pattern ~snapshot:sid relation;
    (snap, relation, provenance, strategy, via_direct)

(* EXPFINDER_CHECK=1 sanitizer: any answer that did not just come out of
   the direct path is re-evaluated directly and compared (as a query
   answer: non-total kernels all denote the empty M(Q,G)), and the
   served relation is run through the {!Verify} pair-validity and
   maximality spot checks, both on [snap], the snapshot the answer was
   evaluated on.  Raises on divergence — the point is to fail tests and
   benches loudly. *)
let differential_check ~snap pattern relation provenance ~via_direct =
  if Verify.differential () then begin
    Counter.incr m_differential;
    try
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
  Histogram.observe h_query_ms (Span.duration_ms span);
  let p = { query; provenance; span; counters; trace_id = trace.Trace.trace_id } in
  Atomic.set t.last_profile (Some p);
  p

(* Finished-request bookkeeping, one call per exit path of the three
   op classes: the duration since [start] and the counter delta since
   [before], tagged with the engine's current snapshot, go to every
   telemetry sink at once.  Returns that delta, which is also the
   request's profile counters. *)
let finished t ~kind ~trace ~start ~before ~query ~strategy ?(pairs = 0) ?digest ~payload
    ?error ?root () =
  let duration_ms = (now_us () -. start) /. 1000.0 in
  let counters = Metrics.delta ~before ~after:(Metrics.counters_snapshot ()) in
  let snap = Atomic.get t.snap in
  Request.finish ~kind ~trace ~query ~strategy ~duration_ms ~counters ~pairs ?digest ~payload
    ?error:(Option.map Printexc.to_string error)
    ?root ~graph_id:(Snapshot.graph_id snap) ~epoch:(Snapshot.epoch snap) ();
  counters

(* An answer's digest, memoised in the cache entry it was served from
   or just stored into: [sid] is that evaluation's snapshot, never a
   later one.  When the entry has been evicted or cleared since, the
   answer's own relation is digested. *)
let answer_digest t pattern ~sid relation =
  lazy
    (match Cache.digest t.cache pattern ~snapshot:sid relation with
    | Some d -> d
    | None -> Match_relation.digest relation)

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
  (* Request bookkeeping is always on (unlike profiles): snapshot the
     counter registry and the clock around the whole query. *)
  let before = Metrics.counters_snapshot () in
  let start = now_us () in
  Counter.incr m_queries;
  let fp = Pattern.fingerprint pattern in
  let payload = lazy (Json.Str (Pattern_io.to_string pattern)) in
  match
    Trace.collect trace ~attrs:[ ("query", fp) ] "evaluate" (fun () ->
        let snap, relation, provenance, strategy, via_direct = evaluate_inner t pattern in
        differential_check ~snap pattern relation provenance ~via_direct;
        Counter.incr (provenance_counter provenance);
        annotate "provenance" (provenance_name provenance);
        annotate_int "pairs" (Match_relation.total relation);
        (snap, relation, provenance, strategy))
  with
  | exception e ->
    ignore
      (finished t ~kind:Qlog.Query ~trace ~start ~before ~query:fp ~strategy:"error" ~payload
         ~error:e ());
    raise e
  | (snap, relation, provenance, strategy), root ->
    let digest = answer_digest t pattern ~sid:(Snapshot.id snap) relation in
    let counters =
      finished t ~kind:Qlog.Query ~trace ~start ~before ~query:fp ~strategy
        ~pairs:(Match_relation.total relation) ~digest ~payload ?root ()
    in
    let profile = Option.map (record_profile t ~trace ~query:fp ~provenance ~counters) root in
    Log.debug (fun m ->
        m "evaluate %s: %d pairs via %s" fp (Match_relation.total relation)
          (provenance_name provenance));
    ({ relation; total = Match_relation.is_total relation; provenance; profile; digest }, snap)

let evaluate ?trace t pattern = fst (evaluate_pinned ?trace t pattern)

(* ------------------------------------------------------------------ *)
(* Batched evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* One batch pins one snapshot and then:

   1. serves exact cache hits;
   2. dedupes the misses by fingerprint;
   3. extracts candidates for *all* remaining queries in a single
      labelled scan ({!Candidates.compute_batch}: label buckets shared
      across the batch — the [candidates.scans] saving);
   4. evaluates supersets first, storing each kernel in the cache, so a
      later batch member contained in an earlier one is answered by the
      containment machinery (seeded refinement, no scan at all).

   Answers are identical to per-query {!evaluate}: candidate sets are
   supersets of the planner's (which additionally prunes sinks), and the
   maximal kernel below any initial superset of it is the same
   fixpoint. *)
let evaluate_batch ?(trace = Trace.ambient) t patterns =
  Counter.incr m_batches;
  let before = Metrics.counters_snapshot () in
  let start = now_us () in
  let snap = snapshot t in
  let sid = Snapshot.id snap in
  let arr = Array.of_list patterns in
  let n = Array.length arr in
  Counter.add m_batch_queries n;
  let label = Printf.sprintf "batch:%d" n in
  let results : (Match_relation.t * provenance) option array = Array.make n None in
  let empty_for pattern =
    Match_relation.create ~pattern_size:(Pattern.size pattern)
      ~graph_size:(Snapshot.node_count snap)
  in
  let run_batch () =
    Trace.collect trace
      ~attrs:[ ("queries", string_of_int n) ]
      "evaluate_batch"
      (fun () ->
        (* 1. Exact cache hits. *)
        let hits = ref 0 in
        with_span "batch_cache" (fun () ->
            Array.iteri
              (fun i pattern ->
                match Cache.find t.cache pattern ~snapshot:sid with
                | Some relation ->
                  incr hits;
                  results.(i) <- Some (relation, From_cache)
                | None -> ())
              arr);
        annotate_int "cache_hits" !hits;
        (* 2. Dedupe misses by fingerprint; [reps] holds the first index
           of each distinct query left to evaluate. *)
        let seen = Hashtbl.create 16 in
        let reps = ref [] in
        Array.iteri
          (fun i pattern ->
            if results.(i) = None then begin
              let fp = Pattern.fingerprint pattern in
              if not (Hashtbl.mem seen fp) then begin
                Hashtbl.add seen fp i;
                reps := i :: !reps
              end
            end)
          arr;
        let reps = Array.of_list (List.rev !reps) in
        (* 3. One shared candidate scan for every distinct miss. *)
        let initials =
          with_span "batch_candidates" (fun () ->
              Candidates.compute_batch (Array.map (fun i -> arr.(i)) reps) snap)
        in
        (* 4. Supersets first: [contains q1 q2] is transitive, so the
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
        let containment_hits = ref 0 in
        Array.iter
          (fun j ->
            let i = reps.(j) in
            let pattern = arr.(i) in
            let relation, provenance =
              if Pattern_analysis.statically_empty pattern then
                (empty_for pattern, Direct)
              else
                match from_containment t pattern ~snap with
                | Some relation ->
                  Counter.incr m_containment;
                  incr containment_hits;
                  (relation, From_cache)
                | None ->
                  let initial = initials.(j) in
                  if not (Match_relation.is_total initial) then
                    (* Some pattern node has no candidate at all: the
                       kernel is empty (the planner's early exit). *)
                    (empty_for pattern, Direct)
                  else
                    let relation =
                      with_span "batch_refine"
                        ~attrs:[ ("query", Pattern.fingerprint pattern) ]
                        (fun () ->
                          if Pattern.is_simulation_pattern pattern then
                            Simulation.run_constrained pattern snap ~initial
                              ~mutable_set:None
                          else
                            Bounded_sim.run_constrained pattern snap ~initial
                              ~mutable_set:None)
                    in
                    (relation, Direct)
            in
            Cache.store t.cache pattern ~snapshot:sid relation;
            differential_check ~snap pattern relation provenance ~via_direct:false;
            Counter.incr (provenance_counter provenance);
            results.(i) <- Some (relation, provenance))
          order;
        annotate_int "containment_hits" !containment_hits;
        (* 5. Duplicates pick up their representative's relation. *)
        Array.iteri
          (fun i pattern ->
            if results.(i) = None then begin
              let rep = Hashtbl.find seen (Pattern.fingerprint pattern) in
              match results.(rep) with
              | Some (relation, _) ->
                Counter.incr m_from_cache;
                results.(i) <- Some (Match_relation.copy relation, From_cache)
              | None -> assert false
            end)
          arr)
  in
  (* The replayable payload is the input list, duplicates included. *)
  let payload =
    lazy (Json.Arr (List.map (fun q -> Json.Str (Pattern_io.to_string q)) patterns))
  in
  match run_batch () with
  | exception e ->
    ignore
      (finished t ~kind:Qlog.Batch ~trace ~start ~before ~query:label ~strategy:"batch/error"
         ~payload ~error:e ());
    raise e
  | (), root ->
    let answers =
      List.mapi
        (fun i pattern ->
          match results.(i) with
          | Some (relation, provenance) ->
            (* Per-answer profiles are not split out of the shared batch
               run; the whole-batch profile is available via
               [last_profile]. *)
            {
              relation;
              total = Match_relation.is_total relation;
              provenance;
              profile = None;
              digest = answer_digest t pattern ~sid relation;
            }
          | None -> assert false)
        patterns
    in
    let counters =
      finished t ~kind:Qlog.Batch ~trace ~start ~before ~query:label ~strategy:"batch"
        ~pairs:(List.fold_left (fun acc a -> acc + Match_relation.total a.relation) 0 answers)
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
   telemetry is on: the ambient context records nothing otherwise. *)
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

let enable_ball_index ?(radius = 3) t =
  let idx = Ball_index.build (snapshot t) ~radius in
  with_maint t (fun () ->
      t.ball_radius <- radius;
      t.ball_index <- Some idx)

let disable_ball_index t = with_maint t (fun () -> t.ball_index <- None)

(* Under the writer, so no update batch lands between the epoch the
   decision reads and the tracker's publication. *)
let enable_compression ?atoms t =
  Mutex.protect t.writer (fun () ->
      let inc = Inc_compress.create_if_pays ?atoms (snapshot_locked t) in
      with_maint t (fun () -> t.compressed <- inc))

let disable_compression t = with_maint t (fun () -> t.compressed <- None)

let compression t =
  with_maint t (fun () -> Option.map Inc_compress.current t.compressed)

(* Under the writer, like [enable_compression]: the query is evaluated
   on the current epoch, and no update batch lands before the tracker is
   registered to sync from it. *)
let register t pattern =
  let fp = Pattern.fingerprint pattern in
  Mutex.protect t.writer (fun () ->
      if not (with_maint t (fun () -> List.mem_assoc fp t.registered)) then begin
        let inc = Incremental.create ~published:(snapshot_locked t) pattern t.g in
        with_maint t (fun () -> t.registered <- t.registered @ [ (fp, inc) ])
      end)

let unregister t pattern =
  let fp = Pattern.fingerprint pattern in
  with_maint t (fun () ->
      t.registered <- List.filter (fun (fp', _) -> fp' <> fp) t.registered)

let registered t =
  with_maint t (fun () ->
      List.map (fun (_, inc) -> Incremental.pattern inc) t.registered)

(* Runs with [t.writer] held: one update batch at a time mutates the
   digraph and publishes the next epoch, rebuilt from the digraph with
   [Snapshot.of_digraph] like every other epoch; concurrent readers keep
   serving their pinned snapshots throughout. *)
let apply_updates_locked t updates =
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
        (with_maint t (fun () -> t.registered)),
      0 )
  else begin
    (* The epoch publication point: the new snapshot is complete before
       this store, so any reader that picks it up sees a coherent
       post-update view. *)
    let published = Snapshot.of_digraph t.g in
    Counter.incr m_snapshot_rebuilds;
    Atomic.set t.snap published;
    (* Publication lag: how long readers were pinned to the stale
       snapshot, from ΔG application to the epoch store above. *)
    Histogram.observe t.cm.h_publish_lag ((now_us () -. t_apply) /. 1000.0);
    Gauge.set t.cm.g_staleness 0;
    (* Results for old epochs are unreachable (keys include the
       identity), but drop them eagerly to keep the cache useful. *)
    Cache.clear t.cache;
    (* Sync the maintained structures under the maintenance lock;
       readers mid-fast-path are waited for, later readers skip the fast
       path until the lock frees.  A registered query that recomputes
       evaluates on [published] rather than building its own CSR. *)
    with_maint t (fun () ->
        (* A compressed graph that no longer pays is dropped. *)
        Option.iter
          (fun inc ->
            match
              Inc_compress.sync_if_pays inc ~snapshot:published
                ~effective:(List.length effective) effective
            with
            | Some _ -> ()
            | None -> t.compressed <- None)
          t.compressed;
        Log.debug (fun m ->
            m "apply_updates: %d effective -> %a, %d registered queries, compression %s"
              (List.length effective) Snapshot.pp_id published (List.length t.registered)
              (if t.compressed = None then "off" else "maintained"));
        ( List.map
            (fun (_, inc) -> Incremental.sync_applied ~published inc ~effective)
            t.registered,
          List.length effective ))
  end

let apply_updates_inner t updates =
  Mutex.lock t.writer;
  match apply_updates_locked t updates with
  | r ->
    Mutex.unlock t.writer;
    r
  | exception e ->
    Mutex.unlock t.writer;
    raise e

let apply_updates ?(trace = Trace.ambient) t updates =
  let before = Metrics.counters_snapshot () in
  let start = now_us () in
  (* The replayable payload is the *input* batch: no-ops are dropped at
     apply time, so replay reproduces the same filtering. *)
  let payload = lazy (Json.Arr (List.map Update.to_json updates)) in
  match
    Trace.collect trace
      ~attrs:[ ("updates", string_of_int (List.length updates)) ]
      "apply_updates"
      (fun () -> apply_updates_inner t updates)
  with
  | exception e ->
    ignore
      (finished t ~kind:Qlog.Update ~trace ~start ~before ~query:"update"
         ~strategy:"update/error" ~payload ~error:e ());
    raise e
  | (reports, effective_n), root ->
    ignore
      (finished t ~kind:Qlog.Update ~trace ~start ~before ~query:"update" ~strategy:"update"
         ~pairs:effective_n ~payload ?root ());
    reports

let cache_stats t = (Cache.hits t.cache, Cache.misses t.cache)

let cache_counters t = (Cache.hits t.cache, Cache.misses t.cache, Cache.evictions t.cache)

let explain t pattern = Planner.explain pattern (Planner.plan pattern (snapshot t))

(* EXPLAIN ANALYZE bypasses the cache/compression/index fast paths on
   purpose: the point is to execute the plan and confront its estimates
   with the candidate sets it actually materialised. *)
let explain_analyze t pattern =
  let snap = snapshot t in
  let _relation, plan = Planner.run_with_plan pattern snap in
  Planner.explain_analyze pattern plan
