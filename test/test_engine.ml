(* The query engine: provenance (cache / compressed / direct), top-K,
   registered-query maintenance, and consistency across update streams. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_engine
module Collab = Expfinder_workload.Collab
module Telemetry = Expfinder_telemetry
module Compress = Expfinder_compression.Compress
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

(* The org graph compresses (8 teams of 5 keep 32 of 49 nodes); Collab
   does not (9 nodes, 9 blocks under every universe), so it only shows the
   decline. *)
let org_graph () = Synthetic.org (Prng.create 99) ~teams:8 ~team_size:5

let org_query () =
  let spec name label k =
    { Pattern.name; label = Some (Label.of_string label); pred = Predicate.ge_int "exp" k }
  in
  Pattern.make_exn
    ~nodes:[| spec "PM" "PM" 5; spec "SA" "SA" 5; spec "SD" "SD" 2 |]
    ~edges:[ (0, 1, Pattern.Bounded 1); (2, 0, Pattern.Bounded 2) ]
    ~output:0

let test_provenance_compressed () =
  let collab = Engine.create (Collab.graph ()) in
  Engine.enable_compression ~atoms:Queries.atom_universe collab;
  Alcotest.(check bool) "collab declined" true (Engine.compression collab = None);
  let engine = Engine.create (org_graph ()) in
  let q = org_query () in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "from compressed" true (answer.Engine.provenance = Engine.From_compressed);
  let direct = Bounded_sim.run q (Engine.snapshot engine) in
  Alcotest.(check bool) "matches direct" true (Match_relation.equal answer.Engine.relation direct);
  Engine.disable_compression engine;
  Alcotest.(check bool) "compression off" true (Engine.compression engine = None)

(* A flat random graph barely compresses: the engine declines after the
   first refinement pass and every answer goes direct. *)
let test_flat_graph_declined () =
  let rng = Prng.create 7 in
  let engine = Engine.create (Synthetic.flat rng ~n:1_000 ~avg_degree:4) in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  Alcotest.(check bool) "declined" true (Engine.compression engine = None);
  List.iter
    (fun q ->
      let answer = Engine.evaluate engine q in
      Alcotest.(check bool) "direct" true (answer.Engine.provenance = Engine.Direct);
      Alcotest.(check bool) "= direct evaluation" true
        (Match_relation.equal answer.Engine.relation (Planner.run q (Engine.snapshot engine))))
    (Queries.workload rng ~count:4 ~simulation:false (Engine.graph engine));
  ignore
    (Engine.apply_updates engine (Update.random_mixed rng (Engine.graph engine) 8)
      : Incremental.report list);
  Alcotest.(check bool) "still none after an update" true (Engine.compression engine = None)

(* Updates that break the org graph's redundancy decay the maintained
   partition past the threshold: the engine drops the compressed graph,
   and answers stay equal to direct evaluation before and after. *)
let test_decayed_compression_dropped () =
  let rng = Prng.create 5 in
  let engine = Engine.create (org_graph ()) in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  Alcotest.(check bool) "org graph compressed" true (Engine.compression engine <> None);
  let q = org_query () in
  let rounds = ref 0 in
  while Engine.compression engine <> None && !rounds < 40 do
    incr rounds;
    (match Engine.compression engine with
    | Some c ->
      Alcotest.(check bool) "kept only while it pays" true
        (Compress.node_ratio c >= Compress.min_node_reduction)
    | None -> ());
    ignore
      (Engine.apply_updates engine (Update.random_mixed rng (Engine.graph engine) 4)
        : Incremental.report list);
    let answer = Engine.evaluate engine q in
    Alcotest.(check bool) "= direct evaluation" true
      (Match_relation.equal answer.Engine.relation (Bounded_sim.run q (Engine.snapshot engine)))
  done;
  Alcotest.(check bool) "dropped" true (Engine.compression engine = None);
  let fresh =
    Compress.compress ~atoms:Queries.atom_universe (Engine.snapshot engine)
  in
  Alcotest.(check bool) "the coarsest partition no longer pays" true
    (Compress.node_ratio fresh < Compress.min_node_reduction);
  let ux_lead =
    Pattern.make_exn
      ~nodes:
        [|
          { Pattern.name = "UX"; label = Some (Label.of_string "UX"); pred = Predicate.ge_int "exp" 3 };
          { Pattern.name = "PM"; label = Some (Label.of_string "PM"); pred = Predicate.ge_int "exp" 2 };
        |]
      ~edges:[ (0, 1, Pattern.Bounded 1) ]
      ~output:0
  in
  let answer = Engine.evaluate engine ux_lead in
  Alcotest.(check bool) "direct after the drop" true (answer.Engine.provenance = Engine.Direct)

let test_unsupported_pattern_falls_back () =
  let engine = Engine.create (org_graph ()) in
  Engine.enable_compression engine;
  (* The empty universe only merges more nodes, so the org graph keeps its
     compressed graph, but the query's exp conditions are outside it. *)
  let q = org_query () in
  (match Engine.compression engine with
  | Some c -> Alcotest.(check bool) "q unsupported" false (Compress.supports c q)
  | None -> Alcotest.fail "the org graph is compressed under the empty universe");
  let answer = Engine.evaluate engine q in
  Alcotest.(check bool) "direct fallback" true (answer.Engine.provenance = Engine.Direct);
  Alcotest.(check bool) "still total" true answer.Engine.total;
  Alcotest.(check bool) "= direct evaluation" true
    (Match_relation.equal answer.Engine.relation (Bounded_sim.run q (Engine.snapshot engine)))

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
  let engine = Engine.create (org_graph ()) in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  let q = org_query () in
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
  let absent = (snd existing, snd existing) in
  Alcotest.(check bool) "self-loop absent" false
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
     registered kernel = compressed answer = direct recomputation.  16
     teams keep the compressed graph through all five batches (8 teams
     decay past the threshold after two). *)
  let rng = Prng.create 99 in
  let g = Synthetic.org rng ~teams:16 ~team_size:5 in
  let engine = Engine.create g in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  let q =
    match Queries.workload rng ~count:1 ~simulation:false (Engine.graph engine) with
    | [ q ] -> q
    | _ -> Alcotest.fail "workload"
  in
  Engine.register engine q;
  let compressed_checks = ref 0 in
  for _round = 1 to 5 do
    let updates = Update.random_mixed rng (Engine.graph engine) 4 in
    ignore (Engine.apply_updates engine updates : Incremental.report list);
    let direct = Bounded_sim.run q (Engine.snapshot engine) in
    let answer = Engine.evaluate engine q in
    Alcotest.(check bool) "engine = direct" true
      (Match_relation.equal answer.Engine.relation direct);
    match Engine.compression engine with
    | Some compressed when Compress.supports compressed q ->
      incr compressed_checks;
      Alcotest.(check bool) "compressed = direct" true
        (Match_relation.equal (Compress.evaluate compressed q) direct)
    | _ -> ()
  done;
  Alcotest.(check int) "compressed answer checked every round" 5 !compressed_checks

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
  (* Cache + compression + registration all enabled: every answer,
     whatever its provenance, equals direct evaluation. *)
  let rng = Prng.create 123 in
  let g = Synthetic.org rng ~teams:30 ~team_size:6 in
  let engine = Engine.create g in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  let queries = Queries.workload rng ~count:6 ~simulation:false (Engine.graph engine) in
  List.iter (Engine.register engine) [ List.hd queries ];
  let compressed_answers = ref 0 in
  for _round = 1 to 3 do
    Alcotest.(check bool) "compression still on" true (Engine.compression engine <> None);
    List.iter
      (fun q ->
        let answer = Engine.evaluate engine q in
        if answer.Engine.provenance = Engine.From_compressed then incr compressed_answers;
        let direct = Bounded_sim.run q (Engine.snapshot engine) in
        Alcotest.(check bool)
          (Printf.sprintf "answer (%s) = direct"
             (match answer.Engine.provenance with
             | Engine.From_cache -> "cache"
             | Engine.From_compressed -> "compressed"
             | Engine.Direct -> "direct"))
          true
          (Match_relation.equal answer.Engine.relation direct))
      queries;
    let updates = Update.random_mixed rng (Engine.graph engine) 5 in
    ignore (Engine.apply_updates engine updates : Incremental.report list)
  done;
  Alcotest.(check bool) "some answers came from the compressed graph" true
    (!compressed_answers > 0)

let test_cache_stats () =
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  ignore (Engine.evaluate engine q : Engine.answer);
  ignore (Engine.evaluate engine q : Engine.answer);
  let hits, misses, _evictions = Engine.cache_counters engine in
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

(* Containment reuse refines a pattern with an unbounded edge below the
   cached kernel of a superset that has the same edge unbounded, and
   gives what the planner gives on the same snapshot.  The refinement
   has work to do: [b2] reaches its C in 2 hops, within the superset's
   bound but not the pattern's, so [b2] and then [a2] go. *)
let test_containment_unbounded () =
  let open Expfinder_telemetry in
  let g = Digraph.create () in
  let node l = Digraph.add_node g ~attrs:(Attrs.of_list [ Attrs.int "exp" 5 ]) (Label.of_string l) in
  let a1 = node "A" and b1 = node "B" and c1 = node "C" in
  let a2 = node "A" and y = node "X" and b2 = node "B" and x = node "X" and c2 = node "C" in
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v : bool))
    [ (a1, b1); (b1, c1); (a2, y); (y, b2); (b2, x); (x, c2) ];
  let pattern ~pred ~bound =
    let spec l p = { Pattern.name = l; label = Some (Label.of_string l); pred = p } in
    Pattern.make_exn
      ~nodes:[| spec "A" pred; spec "B" Predicate.always; spec "C" Predicate.always |]
      ~edges:[ (0, 1, Pattern.Unbounded); (1, 2, Pattern.Bounded bound) ]
      ~output:0
  in
  let tight = pattern ~pred:(Predicate.ge_int "exp" 5) ~bound:1
  and loose = pattern ~pred:Predicate.always ~bound:2 in
  Alcotest.(check bool) "precondition: tight ⊑ loose" true
    (Pattern_analysis.contains tight loose);
  let engine = Engine.create g in
  ignore (Engine.evaluate engine loose : Engine.answer);
  let hits = Metrics.counter "engine.containment_hits" in
  let before = Counter.value hits in
  let answer = Engine.evaluate engine tight in
  Alcotest.(check int) "containment hit counted" (before + 1) (Counter.value hits);
  let planned = Planner.run tight (Engine.snapshot engine) in
  Alcotest.(check (list (pair int int))) "Planner.run" [ (0, a1); (1, b1); (2, c1); (2, c2) ]
    (Match_relation.pairs planned);
  Alcotest.(check (list (pair int int))) "answer = Planner.run" (Match_relation.pairs planned)
    (Match_relation.pairs answer.Engine.relation)

(* Every route an answer can take reports the pair count of direct
   evaluation on the snapshot it was served from: a direct miss, the
   cache hit after it, the registered kernel, the compressed graph,
   containment reuse and a batch member.  Each route is confirmed by the
   counter it alone moves. *)
let test_pairs_on_every_route () =
  let open Expfinder_telemetry in
  let counter name = Counter.value (Metrics.counter name) in
  let check_pairs what engine q (a : Engine.answer) =
    let direct = Planner.run q (Engine.snapshot engine) in
    Alcotest.(check bool) (what ^ ": a total answer") true
      (a.Engine.total && Match_relation.is_total direct);
    Alcotest.(check int) (what ^ ": pairs = Planner.run") (Match_relation.total direct)
      a.Engine.pairs;
    Alcotest.(check int) (what ^ ": pairs = its relation's") (Match_relation.total a.Engine.relation)
      a.Engine.pairs
  in
  (* Direct miss, then the cache hit. *)
  let engine = Engine.create (Collab.graph ()) in
  let q = Collab.query () in
  let miss = Engine.evaluate engine q in
  Alcotest.(check bool) "miss is direct" true (miss.Engine.provenance = Engine.Direct);
  check_pairs "direct miss" engine q miss;
  let hit = Engine.evaluate engine q in
  Alcotest.(check bool) "then a hit" true (hit.Engine.provenance = Engine.From_cache);
  check_pairs "cache hit" engine q hit;
  (* The registered kernel, after an effective update cleared the
     cache: no plan is made. *)
  Engine.register engine q;
  ignore
    (Engine.apply_updates engine [ Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
      : Incremental.report list);
  let plans = counter "planner.plans" in
  let registered = Engine.evaluate engine q in
  Alcotest.(check int) "registered: no plan" plans (counter "planner.plans");
  check_pairs "registered" engine q registered;
  (* The compressed graph. *)
  let org = Engine.create (org_graph ()) in
  Engine.enable_compression ~atoms:Queries.atom_universe org;
  let compressed = Engine.evaluate org (org_query ()) in
  Alcotest.(check bool) "from compressed" true
    (compressed.Engine.provenance = Engine.From_compressed);
  check_pairs "compressed" org (org_query ()) compressed;
  (* Containment reuse below a cached superset. *)
  let engine = Engine.create (Collab.graph ()) in
  ignore (Engine.evaluate engine (loose_query ()) : Engine.answer);
  let hits = counter "engine.containment_hits" in
  let contained = Engine.evaluate engine q in
  Alcotest.(check int) "containment hit" (hits + 1) (counter "engine.containment_hits");
  check_pairs "containment" engine q contained;
  (* Batch members, a duplicate included. *)
  let engine = Engine.create (Collab.graph ()) in
  let members = [ q; Collab.q1 (); q ] in
  let answers = Engine.evaluate_batch engine members in
  List.iter2 (check_pairs "batch member" engine) members answers

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
  Alcotest.(check bool) "direct answer passes the sanitizer" true contained.Engine.total

(* The engine owns its digraph.  Mutating it behind the engine's back
   leaves the published epoch as it was: the writer refuses to build on
   the moved digraph, and readers keep serving the last published epoch
   without rebuilding anything, so every registered read stays equal to
   direct evaluation on the engine's snapshot. *)
let test_outside_mutation_refused () =
  let rebuilds = Telemetry.Metrics.counter "engine.snapshot_rebuilds" in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let g = Synthetic.flat rng ~n:300 ~avg_degree:4 in
      let engine = Engine.create g in
      let patterns = Queries.workload rng ~count:6 ~simulation:false g in
      List.iter (Engine.register engine) patterns;
      ignore
        (Engine.apply_updates engine (Update.random_mixed rng g 4) : Incremental.report list);
      let published = Snapshot.id (Engine.snapshot engine) in
      ignore (Update.apply_batch g (Update.random_mixed rng g 20) : int);
      let refused label f =
        match f () with
        | () -> Alcotest.failf "seed %d: %s accepted a digraph mutated behind the engine" seed label
        | exception Invalid_argument _ -> ()
      in
      refused "apply_updates" (fun () ->
          ignore
            (Engine.apply_updates engine (Update.random_mixed rng g 2) : Incremental.report list));
      refused "register" (fun () ->
          Engine.register engine (List.hd (Queries.workload rng ~count:1 ~simulation:false g)));
      refused "enable_compression" (fun () ->
          Engine.enable_compression ~atoms:Queries.atom_universe engine);
      let rebuilds_before = Telemetry.Counter.value rebuilds in
      let snap = Engine.snapshot engine in
      Alcotest.(check bool) "the published epoch stays" true
        (Snapshot.identity_equal published (Snapshot.id snap));
      Alcotest.(check int) "still six registered" 6 (List.length (Engine.registered engine));
      List.iter
        (fun p ->
          let answer = Engine.evaluate engine p in
          Alcotest.(check bool) "served the registered kernel" true
            (answer.Engine.provenance = Engine.Direct);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: registered read = direct on the snapshot" seed)
            true
            (Verify.semantically_equal answer.Engine.relation (Planner.run p snap)))
        patterns;
      Alcotest.(check int) "reads rebuild nothing" rebuilds_before
        (Telemetry.Counter.value rebuilds))
    [ 1; 2; 3; 4; 5 ]

(* A batch naming a node the graph lacks fails before it changes
   anything, so the engine keeps owning its digraph and applies the
   next batch. *)
let test_bad_batch_applies_nothing () =
  let g = Synthetic.flat (Prng.create 3) ~n:50 ~avg_degree:2 in
  let engine = Engine.create g in
  let version = Digraph.version g in
  let u, v = (0, 1) in
  let toggle = if Digraph.has_edge g u v then Update.Delete_edge (u, v) else Update.Insert_edge (u, v) in
  (match Engine.apply_updates engine [ toggle; Update.Insert_edge (0, 50) ] with
  | _ -> Alcotest.fail "a batch naming node 50 of 50 was accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing applied" version (Digraph.version g);
  ignore (Engine.apply_updates engine [ toggle ] : Incremental.report list);
  Alcotest.(check int) "the next batch applies" (version + 1)
    (Snapshot.epoch (Engine.snapshot engine));
  (* A node inserted earlier in the batch may be named by a later edge. *)
  ignore
    (Engine.apply_updates engine
       [ Update.Insert_node (Label.of_string "SA", Attrs.empty); Update.Insert_edge (0, 50) ]
      : Incremental.report list);
  Alcotest.(check bool) "edge to the new node" true (Digraph.has_edge g 0 50)

let () =
  Alcotest.run "engine"
    [
      ( "evaluate",
        [
          Alcotest.test_case "cache provenance" `Quick test_provenance_cache;
          Alcotest.test_case "compressed provenance" `Quick test_provenance_compressed;
          Alcotest.test_case "flat graph declined" `Quick test_flat_graph_declined;
          Alcotest.test_case "decayed compression dropped" `Quick
            test_decayed_compression_dropped;
          Alcotest.test_case "unsupported falls back" `Quick test_unsupported_pattern_falls_back;
          Alcotest.test_case "cache stats" `Quick test_cache_stats;
          Alcotest.test_case "containment reuse" `Quick test_containment_reuse;
          Alcotest.test_case "containment reuse, unbounded edge" `Quick
            test_containment_unbounded;
          Alcotest.test_case "differential mode" `Quick test_differential_mode_passes;
          Alcotest.test_case "pairs on every route" `Quick test_pairs_on_every_route;
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
          Alcotest.test_case "outside mutation refused" `Quick test_outside_mutation_refused;
          Alcotest.test_case "bad batch applies nothing" `Quick test_bad_batch_applies_nothing;
        ] );
    ]
