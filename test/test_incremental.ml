(* Incremental maintenance: correctness against batch recomputation, on
   the paper's Example 3 and on randomised graph/pattern/update streams. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
module Collab = Expfinder_workload.Collab
module Engine = Expfinder_engine.Engine
module Telemetry = Expfinder_telemetry

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Telemetry.Metrics.counters_snapshot ()))

(* How many syncs took each route, from the counters: floods are syncs
   that ended in a recompute, aborts the part of those that started the
   sparse path first. *)
type routes = { sparse : int; recompute : int; aborted : int }

let routes_during f =
  let syncs = counter "incremental.syncs"
  and floods = counter "incremental.floods"
  and aborts = counter "incremental.aborts" in
  let r = f () in
  let syncs = counter "incremental.syncs" - syncs
  and floods = counter "incremental.floods" - floods
  and aborts = counter "incremental.aborts" - aborts in
  (r, { sparse = syncs - floods; recompute = floods - aborts; aborted = aborts })

(* --- Example 3 through the incremental engine ---------------------- *)

let test_example3_incremental () =
  let g = Collab.graph () in
  let inc = Incremental.create (Collab.query ()) g in
  let src, dst = Collab.e1 in
  let report = Incremental.apply_updates inc g [ Update.Insert_edge (src, dst) ] in
  Alcotest.(check int) "one effective update" 1 report.effective;
  Alcotest.(check (list (pair int int)))
    "delta = {(SD,Fred)}"
    [ (1, Collab.fred) ]
    report.added;
  Alcotest.(check (list (pair int int))) "nothing removed" [] report.removed;
  (* Nobody points to Fred, so the area is Fred plus the potential
     witnesses in his dependency ball (Eva, Jean, Walt, Mat) — 5 of the 9
     people, never the whole graph. *)
  Alcotest.(check int) "area = Fred + his ball" 5 report.area

let test_example3_then_delete () =
  let g = Collab.graph () in
  let inc = Incremental.create (Collab.query ()) g in
  let src, dst = Collab.e1 in
  let _ = Incremental.apply_updates inc g [ Update.Insert_edge (src, dst) ] in
  let report = Incremental.apply_updates inc g [ Update.Delete_edge (src, dst) ] in
  Alcotest.(check (list (pair int int)))
    "deletion removes (SD,Fred)"
    [ (1, Collab.fred) ]
    report.removed;
  let fresh = Bounded_sim.run (Collab.query ()) (Incremental.snapshot inc) in
  Alcotest.(check bool) "kernel = batch" true
    (Match_relation.equal (Incremental.kernel inc) fresh)

let test_out_of_sync_rejected () =
  let g = Collab.graph () in
  let inc = Incremental.create (Collab.query ()) g in
  ignore (Digraph.add_edge g Collab.bill Collab.jean : bool);
  Alcotest.check_raises "stale digraph rejected"
    (Invalid_argument "Incremental.apply_updates: digraph out of sync with tracked snapshot")
    (fun () -> ignore (Incremental.apply_updates inc g [] : Incremental.report))

let test_node_insertion () =
  let g = Collab.graph () in
  let inc = Incremental.create (Collab.query ()) g in
  (* A new junior architect joins and leads Dan: not enough experience to
     match SA, so the kernel is unchanged. *)
  let attrs = Attrs.of_list [ Attrs.str "name" "Ann"; Attrs.int "exp" 1 ] in
  let report =
    Incremental.apply_updates inc g
      [ Update.Insert_node (Label.of_string "SA", attrs); Update.Insert_edge (9, Collab.dan) ]
  in
  Alcotest.(check (list (pair int int))) "no additions" [] report.added;
  (* A seasoned architect joins next to Bob's team and matches. *)
  let attrs = Attrs.of_list [ Attrs.str "name" "Sam"; Attrs.int "exp" 9 ] in
  let report =
    Incremental.apply_updates inc g
      [
        Update.Insert_node (Label.of_string "SA", attrs);
        Update.Insert_edge (10, Collab.dan);
        Update.Insert_edge (10, Collab.jean);
      ]
  in
  Alcotest.(check (list (pair int int))) "Sam matches SA" [ (0, 10) ] report.added

(* --- Randomised equivalence with batch recomputation ---------------- *)

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let random_graph rng =
  let n = 1 + Prng.int rng 40 in
  let m = Prng.int rng (3 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 6) ]))

let random_pattern rng ~simulation =
  let c =
    {
      Pattern_gen.default with
      nodes = 1 + Prng.int rng 4;
      extra_edges = Prng.int rng 3;
      max_bound = 3;
      condition_prob = 0.5;
      condition_range = (0, 4);
    }
  in
  let c = if simulation then Pattern_gen.simulation_config c else c in
  Pattern_gen.generate rng c ~labels

let random_updates rng g =
  let k = 1 + Prng.int rng 8 in
  Update.random_mixed rng g k

let equivalence_property ~simulation seed =
  let rng = Prng.create seed in
  let g = random_graph rng in
  let pattern = random_pattern rng ~simulation in
  let inc = Incremental.create pattern g in
  (* Three successive batches, checking after each. *)
  let ok = ref true in
  for _round = 1 to 3 do
    let updates = random_updates rng g in
    let _ = Incremental.apply_updates inc g updates in
    let batch =
      if Pattern.is_simulation_pattern pattern then
        Simulation.run pattern (Incremental.snapshot inc)
      else Bounded_sim.run pattern (Incremental.snapshot inc)
    in
    if not (Match_relation.equal (Incremental.kernel inc) batch) then ok := false
  done;
  !ok

(* Extended stress: longer streams, node insertions, occasional unbounded
   edges, simulation and bounded patterns.  This is the property that caught the
   mutual-support completeness bug in the ball-closure area growth. *)
let stress_property seed =
  let rng = Prng.create seed in
  let g = random_graph rng in
  let pattern =
    let c =
      {
        Pattern_gen.default with
        nodes = 1 + Prng.int rng 5;
        extra_edges = Prng.int rng 4;
        max_bound = 3;
        unbounded_prob = (if Prng.int rng 4 = 0 then 0.3 else 0.0);
        condition_prob = 0.5;
        condition_range = (0, 4);
      }
    in
    let c = if Prng.bool rng then Pattern_gen.simulation_config c else c in
    Pattern_gen.generate rng c ~labels
  in
  let inc = Incremental.create pattern g in
  let ok = ref true in
  for _round = 1 to 5 do
    let updates = Update.random_mixed rng g (1 + Prng.int rng 10) in
    let updates =
      if Prng.int rng 3 = 0 then
        updates
        @ [
            Update.Insert_node
              (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 6) ]);
            Update.Insert_edge (Digraph.node_count g, Prng.int rng (Digraph.node_count g));
          ]
      else updates
    in
    let _ = Incremental.apply_updates inc g updates in
    let csr = Snapshot.of_digraph g in
    let batch =
      if Pattern.is_simulation_pattern pattern then Simulation.run pattern csr
      else Bounded_sim.run pattern csr
    in
    if not (Match_relation.equal (Incremental.kernel inc) batch) then ok := false
  done;
  !ok

(* Area refinement on the area-local CSR, mapped back, equals the
   frozen-node fixpoint on the whole snapshot.  A third of the candidate
   pairs is dropped from the start, so a pair often has its only witness
   exactly [kmax] hops away. *)
let area_refine_property seed =
  let rng = Prng.create seed in
  let g = random_graph rng in
  let pattern = random_pattern rng ~simulation:(Prng.int rng 4 = 0) in
  let snap = Snapshot.of_digraph g in
  let area = Bitset.create (Digraph.node_count g) in
  for v = 0 to Digraph.node_count g - 1 do
    if Prng.int rng 3 = 0 then Bitset.add area v
  done;
  let initial = Candidates.compute pattern snap in
  List.iter
    (fun (u, v) -> if Prng.int rng 3 = 0 then Match_relation.remove initial u v)
    (Match_relation.pairs initial);
  let expected =
    if Pattern.is_simulation_pattern pattern then
      Simulation.run_constrained pattern snap ~initial ~mutable_set:(Some area)
    else Bounded_sim.run_constrained pattern snap ~initial ~mutable_set:(Some area)
  in
  Match_relation.equal (Incremental.refine_over_area pattern g ~initial ~area) expected

let qcheck_cases =
  [
    QCheck.Test.make ~count:300 ~name:"area-local refinement = constrained refinement"
      QCheck.small_int (fun seed -> area_refine_property (seed + 1));
    QCheck.Test.make ~count:60 ~name:"incremental sim = batch sim"
      QCheck.small_int (fun seed -> equivalence_property ~simulation:true (seed + 1));
    QCheck.Test.make ~count:40 ~name:"incremental bsim = batch bsim"
      QCheck.small_int (fun seed -> equivalence_property ~simulation:false (seed + 1));
    QCheck.Test.make ~count:60 ~name:"incremental stress (nodes/unbounded/strategies)"
      QCheck.small_int (fun seed -> stress_property (seed + 1));
  ]

(* --- Routing between sparse sync and recompute ---------------------- *)

let kernel_of pattern snap =
  if Pattern.is_simulation_pattern pattern then Simulation.run pattern snap
  else Bounded_sim.run pattern snap

let diff before after =
  let added = ref [] and removed = ref [] in
  for u = Match_relation.pattern_size after - 1 downto 0 do
    List.iter
      (fun v -> if not (Match_relation.mem before u v) then added := (u, v) :: !added)
      (List.rev (Match_relation.matches after u));
    List.iter
      (fun v -> if not (Match_relation.mem after u v) then removed := (u, v) :: !removed)
      (List.rev (Match_relation.matches before u))
  done;
  (!added, !removed)

let same_answer a b =
  match (Match_relation.is_total a, Match_relation.is_total b) with
  | false, false -> true
  | true, true -> Match_relation.equal a b
  | _ -> false

(* --- The snapshot a sync reads ---------------------------------------- *)

(* A sync reads the new graph from [published] only when that is the
   tracked digraph at its current version.  A snapshot of another graph
   at the same epoch, or of an earlier epoch of this one, is ignored and
   the tracker builds its own; so is no snapshot at all.  Every batch
   deletes edges and inserts a node with edges to and from it, so the
   old snapshot has fewer nodes than the new one, whose size the BFS
   scratch takes. *)
let published_property seed =
  let rng = Prng.create seed in
  let g = random_graph rng in
  let pattern = random_pattern rng ~simulation:(Prng.bool rng) in
  let inc = Incremental.create pattern g in
  let other = Digraph.copy g in
  let ok = ref true in
  for round = 0 to 3 do
    let stale = Snapshot.of_digraph g in
    let fresh = Digraph.node_count g in
    let updates =
      Update.random_deletions rng g (1 + Prng.int rng 4)
      @ [
          Update.Insert_node
            (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 6) ]);
          Update.Insert_edge (fresh, Prng.int rng fresh);
          Update.Insert_edge (Prng.int rng fresh, fresh);
        ]
      @ Update.random_insertions rng g (Prng.int rng 3)
    in
    let effective = Update.apply_batch_filtered g updates in
    (* [other] catches up with [g]'s version by toggling a self-loop. *)
    while Digraph.version other < Digraph.version g do
      let toggle =
        if Digraph.has_edge other 0 0 then Update.Delete_edge (0, 0) else Update.Insert_edge (0, 0)
      in
      ignore (Update.apply_batch other [ toggle ] : int)
    done;
    let published =
      match round with
      | 0 -> Some stale
      | 1 -> Some (Snapshot.of_digraph other)
      | 2 -> Some (Snapshot.of_digraph g)
      | _ -> None
    in
    ignore (Incremental.sync_applied ?published inc ~effective : Incremental.report);
    let snap = Snapshot.of_digraph g in
    if
      not
        (Match_relation.equal (Incremental.kernel inc) (kernel_of pattern snap)
        && Snapshot.identity_equal (Snapshot.id (Incremental.snapshot inc)) (Snapshot.id snap))
    then ok := false
  done;
  !ok

(* Routes seen across every case of the oracle property. *)
let oracle_routes = ref { sparse = 0; recompute = 0; aborted = 0 }

(* The route oracle: registered queries maintained by the engine over
   batches of 1 to |E|/4 updates, whatever route each sync takes, give
   the kernels of direct evaluation, and their reports give the kernel
   diffs. *)
let route_oracle seed =
  let rng = Prng.create seed in
  let g = random_graph rng in
  let engine = Engine.create g in
  let patterns =
    List.sort_uniq
      (fun a b -> compare (Pattern.fingerprint a) (Pattern.fingerprint b))
      [
        random_pattern rng ~simulation:true;
        random_pattern rng ~simulation:false;
        random_pattern rng ~simulation:false;
      ]
  in
  List.iter (Engine.register engine) patterns;
  let registered = Engine.registered engine in
  let ok, routes =
    routes_during (fun () ->
        let ok = ref true in
        for _batch = 1 to 4 do
          let before = List.map (fun p -> kernel_of p (Snapshot.of_digraph g)) registered in
          let size = 1 + Prng.int rng (max 1 (Digraph.edge_count g / 4)) in
          let reports = Engine.apply_updates engine (Update.random_mixed rng g size) in
          let snap = Snapshot.of_digraph g in
          List.iter2
            (fun (p, before) (report : Incremental.report) ->
              if diff before (kernel_of p snap) <> (report.added, report.removed) then
                ok := false)
            (List.combine registered before)
            reports
        done;
        let snap = Snapshot.of_digraph g in
        List.iter
          (fun p ->
            let read = (Engine.evaluate engine p).Engine.relation in
            if
              not
                (same_answer read (Planner.run p snap)
                && Match_relation.equal read (kernel_of p snap))
            then ok := false)
          registered;
        !ok)
  in
  let seen = !oracle_routes in
  oracle_routes :=
    {
      sparse = seen.sparse + routes.sparse;
      recompute = seen.recompute + routes.recompute;
      aborted = seen.aborted + routes.aborted;
    };
  ok

let test_oracle_took_every_route () =
  let r = !oracle_routes in
  Alcotest.(check bool)
    (Printf.sprintf "sparse %d, recompute %d, aborted %d: each taken" r.sparse r.recompute
       r.aborted)
    true
    (r.sparse > 0 && r.recompute > 0 && r.aborted > 0)

(* Example 3's unit update stays on the sparse path: Fred and his
   dependency ball, never the whole graph. *)
let test_unit_update_stays_sparse () =
  let g = Collab.graph () in
  let inc = Incremental.create (Collab.query ()) g in
  let src, dst = Collab.e1 in
  let report, routes =
    routes_during (fun () -> Incremental.apply_updates inc g [ Update.Insert_edge (src, dst) ])
  in
  Alcotest.(check int) "sparse" 1 routes.sparse;
  Alcotest.(check bool) "area <= 5" true (report.area <= 5);
  Alcotest.(check bool) "refined" true (report.iterations > 0)

(* A batch that touches most of the graph is priced out while seeding:
   it recomputes on the published snapshot and never starts refining. *)
let test_wide_batch_recomputes_at_once () =
  let rng = Prng.create 1 in
  let g =
    Generators.erdos_renyi rng ~n:200 ~m:600 (fun _ ->
        (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 6) ]))
  in
  let spec l k =
    { Pattern.name = l; label = Some (Label.of_string l); pred = Predicate.ge_int "exp" k }
  in
  let pattern =
    Pattern.make_exn
      ~nodes:[| spec "A" 1; spec "B" 2; spec "C" 1 |]
      ~edges:[ (0, 1, Pattern.Bounded 2); (1, 2, Pattern.Bounded 3); (2, 0, Pattern.Bounded 2) ]
      ~output:0
  in
  let engine = Engine.create g in
  Engine.register engine pattern;
  let refinements = counter "incremental.rounds" in
  let reports, routes =
    routes_during (fun () ->
        Engine.apply_updates engine (Update.random_mixed rng g (Digraph.edge_count g)))
  in
  Alcotest.(check int) "recomputed at once" 1 routes.recompute;
  Alcotest.(check int) "no abort" 0 routes.aborted;
  Alcotest.(check int) "no refinement started" refinements
    (counter "incremental.rounds");
  (match reports with
  | [ r ] -> Alcotest.(check int) "area = |V|" 200 r.Incremental.area
  | _ -> Alcotest.fail "expected one report");
  Alcotest.(check bool) "kernel = batch" true
    (Match_relation.equal
       (Engine.evaluate engine pattern).Engine.relation
       (Bounded_sim.run pattern (Snapshot.of_digraph g)))

(* A sync that ends in a recompute (routed there, or aborted) reports
   the diff of the whole old and new kernels: against a naive scan of
   every (pattern node, data node) pair, in the same order, over wide
   batches that both add and remove pairs. *)
let test_recompute_report_is_full_diff () =
  let rng = Prng.create 3 in
  let g =
    Generators.erdos_renyi rng ~n:300 ~m:700 (fun _ ->
        (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 6) ]))
  in
  let spec l k =
    { Pattern.name = l; label = Some (Label.of_string l); pred = Predicate.ge_int "exp" k }
  in
  let pattern =
    Pattern.make_exn
      ~nodes:[| spec "A" 1; spec "B" 2; spec "C" 1 |]
      ~edges:[ (0, 1, Pattern.Bounded 2); (1, 2, Pattern.Bounded 1); (2, 0, Pattern.Bounded 2) ]
      ~output:0
  in
  let naive_diff before after =
    let added = ref [] and removed = ref [] in
    for u = 0 to Match_relation.pattern_size after - 1 do
      for v = 0 to Match_relation.graph_size after - 1 do
        match (Match_relation.mem before u v, Match_relation.mem after u v) with
        | false, true -> added := (u, v) :: !added
        | true, false -> removed := (u, v) :: !removed
        | _ -> ()
      done
    done;
    (List.rev !added, List.rev !removed)
  in
  let inc = Incremental.create pattern g in
  let gained = ref 0 and lost = ref 0 and routed = ref 0 in
  for _batch = 1 to 6 do
    let before = Match_relation.copy (Incremental.kernel inc) in
    let report, routes =
      routes_during (fun () ->
          Incremental.apply_updates inc g (Update.random_mixed rng g (Digraph.edge_count g / 2)))
    in
    Alcotest.(check int) "ended in a recompute" 1 (routes.recompute + routes.aborted);
    routed := !routed + routes.recompute;
    let added, removed = naive_diff before (Incremental.kernel inc) in
    Alcotest.(check (list (pair int int))) "added" added report.Incremental.added;
    Alcotest.(check (list (pair int int))) "removed" removed report.removed;
    gained := !gained + List.length added;
    lost := !lost + List.length removed
  done;
  Alcotest.(check bool) "pairs added and removed" true (!gained > 0 && !lost > 0);
  Alcotest.(check bool) "some batch routed to the recompute" true (!routed > 0)

(* A recompute refines the candidates its tracker carries, extended with
   the nodes inserted since.  Registered bounded, unbounded-edge and
   simulation patterns are maintained by the engine over rounds of two
   batches: one inserts an A-node matching every A condition and wires
   it to and from random nodes, the next churns half the edges, so that
   syncs recompute.  Every read after every batch equals [Planner.run]
   on that epoch's snapshot, and some read admits an inserted node. *)
let test_recompute_admits_inserted_nodes () =
  let rng = Prng.create 5 in
  let g =
    Generators.erdos_renyi rng ~n:120 ~m:360 (fun _ ->
        (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 6) ]))
  in
  let spec l k =
    { Pattern.name = l; label = Some (Label.of_string l); pred = Predicate.ge_int "exp" k }
  in
  let nodes = [| spec "A" 1; spec "B" 1; spec "C" 1 |] in
  let patterns =
    List.map
      (fun (b1, b2) ->
        Pattern.make_exn ~nodes ~edges:[ (0, 1, b1); (1, 2, b2); (2, 0, b2) ] ~output:0)
      Pattern.[ (Bounded 2, Bounded 2); (Unbounded, Bounded 1); (Bounded 1, Bounded 1) ]
  in
  let engine = Engine.create g in
  List.iter (Engine.register engine) patterns;
  let admitted = ref 0 and recomputed = ref 0 in
  let apply updates =
    let _, routes = routes_during (fun () -> Engine.apply_updates engine (updates ())) in
    recomputed := !recomputed + routes.recompute + routes.aborted;
    let snap = Snapshot.of_digraph g in
    List.iter
      (fun p ->
        let read = (Engine.evaluate engine p).Engine.relation in
        Alcotest.(check bool) "read = Planner.run" true (same_answer read (Planner.run p snap)))
      patterns
  in
  for _round = 1 to 8 do
    let fresh = Digraph.node_count g in
    apply (fun () ->
        Update.Insert_node (Label.of_string "A", Attrs.of_list [ Attrs.int "exp" 5 ])
        :: List.concat_map
             (fun v -> [ Update.Insert_edge (fresh, v); Update.Insert_edge (v, fresh) ])
             (List.init 4 (fun _ -> Prng.int rng fresh)));
    apply (fun () -> Update.random_mixed rng g (Digraph.edge_count g / 2));
    List.iter
      (fun p ->
        if Match_relation.mem (Engine.evaluate engine p).Engine.relation 0 fresh then
          incr admitted)
      patterns
  done;
  Alcotest.(check bool) (Printf.sprintf "%d recomputes" !recomputed) true (!recomputed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d inserted nodes admitted" !admitted)
    true (!admitted > 0)

(* --- Update plumbing ------------------------------------------------ *)

let test_update_invert () =
  let u = Update.Insert_edge (1, 2) in
  Alcotest.(check bool) "invert insert" true (Update.invert u = Some (Update.Delete_edge (1, 2)));
  Alcotest.(check bool) "invert node insert" true
    (Update.invert (Update.Insert_node (Label.of_string "A", Attrs.empty)) = None)

let test_random_deletions_are_edges () =
  let rng = Prng.create 7 in
  let g = random_graph rng in
  let dels = Update.random_deletions rng g 10 in
  List.iter
    (function
      | Update.Delete_edge (u, v) ->
        Alcotest.(check bool) "edge exists" true (Digraph.has_edge g u v)
      | _ -> Alcotest.fail "expected deletion")
    dels

let test_touched_sources_dedup () =
  let ups = [ Update.Insert_edge (3, 4); Update.Delete_edge (3, 5); Update.Insert_edge (2, 3) ] in
  Alcotest.(check (list int)) "sources" [ 3; 2 ] (Update.touched_sources ups)

let () =
  Alcotest.run "incremental"
    [
      ( "example3",
        [
          Alcotest.test_case "insert e1" `Quick test_example3_incremental;
          Alcotest.test_case "insert then delete e1" `Quick test_example3_then_delete;
          Alcotest.test_case "out-of-sync rejected" `Quick test_out_of_sync_rejected;
          Alcotest.test_case "node insertion" `Quick test_node_insertion;
        ] );
      ( "updates",
        [
          Alcotest.test_case "invert" `Quick test_update_invert;
          Alcotest.test_case "random deletions" `Quick test_random_deletions_are_edges;
          Alcotest.test_case "touched sources" `Quick test_touched_sources_dedup;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
      ( "published",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:100
               ~name:"a foreign or stale published snapshot is ignored" QCheck.small_int
               (fun seed -> published_property (seed + 1)));
        ] );
      ( "routes",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:150 ~name:"route oracle: engine reads = direct evaluation"
               QCheck.small_int (fun seed -> route_oracle (seed + 1)));
          Alcotest.test_case "oracle took every route" `Quick test_oracle_took_every_route;
          Alcotest.test_case "unit update stays sparse" `Quick test_unit_update_stays_sparse;
          Alcotest.test_case "wide batch recomputes at once" `Quick
            test_wide_batch_recomputes_at_once;
          Alcotest.test_case "recompute report = full kernel diff" `Quick
            test_recompute_report_is_full_diff;
          Alcotest.test_case "recompute admits inserted nodes" `Quick
            test_recompute_admits_inserted_nodes;
        ] );
    ]
