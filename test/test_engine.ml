(* The query engine: provenance (cache / compressed / direct), top-K,
   registered-query maintenance, and consistency across update streams. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_engine
module Collab = Expfinder_workload.Collab
module Queries = Expfinder_workload.Queries
module Synthetic = Expfinder_workload.Synthetic

let test_provenance_cache () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  let first = Engine.evaluate engine q in
  Alcotest.(check bool) "first direct" true (first.Engine.provenance = Engine.Direct);
  let second = Engine.evaluate engine q in
  Alcotest.(check bool) "second cached" true (second.Engine.provenance = Engine.From_cache);
  Alcotest.(check bool) "same relation" true
    (Match_relation.equal first.Engine.relation second.Engine.relation);
  Alcotest.(check bool) "total" true first.Engine.total

let test_provenance_compressed () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  (* Q's conditions are exp>=2/3/5; 5 is not in the workload universe, so
     use a dedicated universe that covers Q. *)
  Engine.enable_compression
    ~atoms:
      [
        { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 2 };
        { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 3 };
        { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 5 };
      ]
    engine;
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "from compressed" true (answer.Engine.provenance = Engine.From_compressed);
  let direct = Bounded_sim.run q (Engine.snapshot engine) in
  Alcotest.(check bool) "matches direct" true (Match_relation.equal answer.Engine.relation direct);
  Engine.disable_compression engine;
  Alcotest.(check bool) "compression off" true (Engine.compression engine = None)

let test_unsupported_pattern_falls_back () =
  let engine = Engine.create (Collab.graph ()) in
  Engine.enable_compression engine;
  (* empty universe: Q unsupported *)
  let answer = Engine.evaluate engine (Collab.query ()) in
  Alcotest.(check bool) "direct fallback" true (answer.Engine.provenance = Engine.Direct);
  Alcotest.(check bool) "still total" true answer.Engine.total

let test_top_k_names () =
  let engine = Engine.create (Collab.graph ()) in
  match Engine.top_k engine (Collab.query ()) ~k:2 with
  | [ first; second ] ->
    Alcotest.(check (option string)) "top-1 Bob" (Some "Bob") first.Engine.name;
    Alcotest.(check (option string)) "top-2 Walt" (Some "Walt") second.Engine.name;
    Alcotest.(check bool) "ranks ordered" true
      (Ranking.compare_rank first.Engine.rank second.Engine.rank <= 0)
  | _ -> Alcotest.fail "expected two experts"

let test_top_k_empty_when_no_match () =
  let engine = Engine.create (Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  Alcotest.(check int) "no experts" 0 (List.length (Engine.top_k engine p ~k:5))

let test_updates_invalidate_cache () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  ignore (Engine.evaluate engine q : Engine.answer);
  ignore (Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
           : Incremental.report list);
  let after = Engine.evaluate engine q in
  Alcotest.(check bool) "fresh answer" true (after.Engine.provenance <> Engine.From_cache);
  Alcotest.(check bool) "Fred matched now" true (Match_relation.mem after.Engine.relation 1 Collab.fred)

(* A batch whose every update is a no-op leaves the engine as it was:
   same epoch, warm cache, untouched compressed graph and kernels. *)
let test_noop_batch_changes_nothing () =
  let engine = Engine.create (Collab.graph ()) in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  let q = Collab.query () in
  Engine.register engine q;
  ignore (Engine.evaluate engine q : Engine.answer);
  let snap = Engine.snapshot engine in
  let compressed = Engine.compression engine in
  let existing =
    let first = ref None in
    Digraph.iter_edges (Engine.graph engine) (fun u v ->
        if !first = None then first := Some (u, v));
    Option.get !first
  in
  let absent = Collab.e1 in
  Alcotest.(check bool) "e1 absent" false
    (Digraph.has_edge (Engine.graph engine) (fst absent) (snd absent));
  let reports =
    Engine.apply_updates engine
      [ Update.Insert_edge (fst existing, snd existing); Update.Delete_edge (fst absent, snd absent) ]
  in
  Alcotest.(check (list int)) "reports say effective = 0" [ 0 ]
    (List.map (fun (r : Incremental.report) -> r.effective) reports);
  Alcotest.(check bool) "same snapshot" true (Engine.snapshot engine == snap);
  Alcotest.(check bool) "same identity" true
    (Snapshot.identity_equal (Snapshot.id (Engine.snapshot engine)) (Snapshot.id snap));
  Alcotest.(check bool) "compressed graph untouched" true
    (match (compressed, Engine.compression engine) with
    | Some before, Some after -> before == after
    | _ -> false);
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "still a cache hit" true (answer.Engine.provenance = Engine.From_cache)

let test_registered_query_maintained () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  Engine.register engine q;
  Alcotest.(check int) "registered" 1 (List.length (Engine.registered engine));
  let reports =
    Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
  in
  (match reports with
  | [ report ] ->
    Alcotest.(check (list (pair int int))) "maintained delta" [ (1, Collab.fred) ]
      report.Incremental.added
  | _ -> Alcotest.fail "expected one report");
  (* The registered kernel now answers without recomputation. *)
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "Fred present" true (Match_relation.mem answer.Engine.relation 1 Collab.fred);
  Engine.unregister engine q;
  Alcotest.(check int) "unregistered" 0 (List.length (Engine.registered engine))

let test_engine_consistency_under_updates () =
  (* Everything stays consistent across a stream of random update batches:
     registered kernel = compressed answer = direct recomputation. *)
  let rng = Prng.create 99 in
  let g = Synthetic.org rng ~teams:8 ~team_size:5 in
  let engine = Engine.create g in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  let q =
    match Queries.workload rng ~count:1 ~simulation:false (Engine.graph engine) with
    | [ q ] -> q
    | _ -> Alcotest.fail "workload"
  in
  Engine.register engine q;
  for _round = 1 to 5 do
    let updates = Update.random_mixed rng (Engine.graph engine) 4 in
    ignore (Engine.apply_updates engine updates : Incremental.report list);
    let direct = Bounded_sim.run q (Engine.snapshot engine) in
    let answer = Engine.evaluate engine q in
    Alcotest.(check bool) "engine = direct" true
      (Match_relation.equal answer.Engine.relation direct);
    match Engine.compression engine with
    | Some compressed when Expfinder_compression.Compress.supports compressed q ->
      Alcotest.(check bool) "compressed = direct" true
        (Match_relation.equal (Expfinder_compression.Compress.evaluate compressed q) direct)
    | _ -> ()
  done

let test_ball_index_provenance () =
  let engine = Engine.create (Collab.graph ()) in
  Engine.enable_ball_index ~radius:3 engine;
  let q = Collab.query () in
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "answered from index" true
    (answer.Engine.provenance = Engine.From_index);
  let direct = Bounded_sim.run q (Engine.snapshot engine) in
  Alcotest.(check bool) "matches direct" true
    (Match_relation.equal answer.Engine.relation direct);
  (* Updates invalidate the index; it is rebuilt lazily and stays
     correct. *)
  ignore
    (Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
      : Incremental.report list);
  let after = Engine.evaluate engine q in
  Alcotest.(check bool) "still from index" true (after.Engine.provenance = Engine.From_index);
  Alcotest.(check bool) "Fred found via index" true
    (Match_relation.mem after.Engine.relation 1 Collab.fred);
  (* Unsupported patterns (unbounded edges) fall back to the planner. *)
  let q3 = Collab.q3 () in
  let fallback = Engine.evaluate engine q3 in
  Alcotest.(check bool) "unbounded falls back" true
    (fallback.Engine.provenance = Engine.Direct);
  Engine.disable_ball_index engine;
  (* An effective update empties the cache (a batch of no-ops would not). *)
  ignore
    (Engine.apply_updates engine [ Update.Delete_edge (fst Collab.e1, snd Collab.e1) ]
      : Incremental.report list);
  let off = Engine.evaluate engine q in
  Alcotest.(check bool) "disabled -> direct" true (off.Engine.provenance = Engine.Direct)

let test_result_graph_empty_when_no_match () =
  let engine = Engine.create (Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let gr = Engine.result_graph engine p in
  Alcotest.(check int) "empty result graph" 0 (Result_graph.node_count gr)

let test_register_is_idempotent () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  Engine.register engine q;
  Engine.register engine q;
  Alcotest.(check int) "registered once" 1 (List.length (Engine.registered engine));
  (* A structurally equal but separately built pattern shares the
     fingerprint and therefore the registration. *)
  Engine.register engine (Collab.query ());
  Alcotest.(check int) "still once" 1 (List.length (Engine.registered engine))

let test_all_features_agree () =
  (* Cache + compression + ball index + registration all enabled: every
     answer, whatever its provenance, equals direct evaluation. *)
  let rng = Prng.create 123 in
  let g = Synthetic.org rng ~teams:30 ~team_size:6 in
  let engine = Engine.create g in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  Engine.enable_ball_index ~radius:3 engine;
  let queries = Queries.workload rng ~count:6 ~simulation:false (Engine.graph engine) in
  List.iter (Engine.register engine) [ List.hd queries ];
  for _round = 1 to 3 do
    List.iter
      (fun q ->
        let answer = Engine.evaluate engine q in
        let direct = Bounded_sim.run q (Engine.snapshot engine) in
        Alcotest.(check bool)
          (Printf.sprintf "answer (%s) = direct"
             (match answer.Engine.provenance with
             | Engine.From_cache -> "cache"
             | Engine.From_compressed -> "compressed"
             | Engine.From_index -> "index"
             | Engine.Direct -> "direct"))
          true
          (Match_relation.equal answer.Engine.relation direct))
      queries;
    let updates = Update.random_mixed rng (Engine.graph engine) 5 in
    ignore (Engine.apply_updates engine updates : Incremental.report list)
  done

let test_cache_stats () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  ignore (Engine.evaluate engine q : Engine.answer);
  ignore (Engine.evaluate engine q : Engine.answer);
  let hits, misses = Engine.cache_stats engine in
  Alcotest.(check bool) "one hit, one miss" true (hits >= 1 && misses >= 1)

(* Containment reuse: a cached superset query answers a contained query
   without touching the whole graph. *)
let loose_query () =
  let q = Collab.query () in
  let nodes =
    Array.init (Pattern.size q) (fun u ->
        let s = Pattern.node_spec q u in
        { s with Pattern.pred = Predicate.always })
  in
  let edges =
    List.map
      (fun (u, v, b) ->
        (u, v, match b with Pattern.Bounded k -> Pattern.Bounded (k + 1) | b -> b))
      (Pattern.edges q)
  in
  Pattern.make_exn ~nodes ~edges ~output:(Pattern.output q)

let test_containment_reuse () =
  let open Expfinder_telemetry in
  set_enabled true;
  Fun.protect ~finally:(fun () -> set_enabled false) @@ fun () ->
  let engine = Engine.create (Collab.graph ()) in
  let tight = Collab.query () and loose = loose_query () in
  Alcotest.(check bool) "precondition: tight ⊑ loose" true
    (Pattern_analysis.contains tight loose);
  let hits = Metrics.counter "engine.containment_hits" in
  let before = Counter.value hits in
  let first = Engine.evaluate engine loose in
  Alcotest.(check bool) "superset evaluated directly" true
    (first.Engine.provenance = Engine.Direct);
  let second = Engine.evaluate engine tight in
  Alcotest.(check bool) "contained query served from the cached superset" true
    (second.Engine.provenance = Engine.From_cache);
  Alcotest.(check int) "containment hit counted" (before + 1) (Counter.value hits);
  let direct = Bounded_sim.run tight (Engine.snapshot engine) in
  Alcotest.(check bool) "answer equals direct evaluation" true
    (Match_relation.equal second.Engine.relation direct);
  (* The reused answer is cached under the tight fingerprint: a third
     evaluation is an exact cache hit, no containment scan. *)
  let third = Engine.evaluate engine tight in
  Alcotest.(check bool) "then an exact hit" true (third.Engine.provenance = Engine.From_cache);
  Alcotest.(check int) "no second containment hit" (before + 1) (Counter.value hits)

let test_differential_mode_passes () =
  Verify.set_differential true;
  Fun.protect ~finally:(fun () -> Verify.set_differential false) @@ fun () ->
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  let first = Engine.evaluate engine q in
  let second = Engine.evaluate engine q in
  Alcotest.(check bool) "cached answer survives the differential check" true
    (second.Engine.provenance = Engine.From_cache);
  Alcotest.(check bool) "answers agree" true
    (Match_relation.equal first.Engine.relation second.Engine.relation);
  let contained = Engine.evaluate engine (loose_query ()) in
  Alcotest.(check bool) "direct answer passes the sanitizer" true contained.Engine.total;
  Engine.enable_ball_index engine;
  let indexed = Engine.evaluate engine q in
  Alcotest.(check bool) "indexed answer passes too" true indexed.Engine.total

let () =
  Alcotest.run "engine"
    [
      ( "evaluate",
        [
          Alcotest.test_case "cache provenance" `Quick test_provenance_cache;
          Alcotest.test_case "compressed provenance" `Quick test_provenance_compressed;
          Alcotest.test_case "unsupported falls back" `Quick test_unsupported_pattern_falls_back;
          Alcotest.test_case "ball index" `Quick test_ball_index_provenance;
          Alcotest.test_case "cache stats" `Quick test_cache_stats;
          Alcotest.test_case "containment reuse" `Quick test_containment_reuse;
          Alcotest.test_case "differential mode" `Quick test_differential_mode_passes;
        ] );
      ( "topk",
        [
          Alcotest.test_case "names and order" `Quick test_top_k_names;
          Alcotest.test_case "empty on no match" `Quick test_top_k_empty_when_no_match;
          Alcotest.test_case "empty result graph" `Quick test_result_graph_empty_when_no_match;
        ] );
      ( "features",
        [
          Alcotest.test_case "register idempotent" `Quick test_register_is_idempotent;
          Alcotest.test_case "all features agree" `Quick test_all_features_agree;
        ] );
      ( "updates",
        [
          Alcotest.test_case "cache invalidation" `Quick test_updates_invalidate_cache;
          Alcotest.test_case "no-op batch changes nothing" `Quick test_noop_batch_changes_nothing;
          Alcotest.test_case "registered maintained" `Quick test_registered_query_maintained;
          Alcotest.test_case "consistency stream" `Quick test_engine_consistency_under_updates;
        ] );
    ]
