(* Incremental maintenance: correctness against batch recomputation, on
   the paper's Example 3 and on randomised graph/pattern/update streams. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
module Collab = Expfinder_workload.Collab
module Engine = Expfinder_engine.Engine
module Telemetry = Expfinder_telemetry

(* Counters are gated by the telemetry flag; route tests read them. *)
let with_counters f =
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

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
   edges, both area strategies.  This is the property that caught the
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
  let strategy = if Prng.bool rng then Incremental.Ball_closure else Incremental.Ancestors in
  let inc = Incremental.create ~area_strategy:strategy pattern g in
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

let qcheck_cases =
  [
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
  with_counters (fun () ->
      let g = Collab.graph () in
      let inc = Incremental.create (Collab.query ()) g in
      let src, dst = Collab.e1 in
      let report, routes =
        routes_during (fun () -> Incremental.apply_updates inc g [ Update.Insert_edge (src, dst) ])
      in
      Alcotest.(check int) "sparse" 1 routes.sparse;
      Alcotest.(check bool) "area <= 5" true (report.area <= 5);
      Alcotest.(check bool) "refined" true (report.iterations > 0))

(* A batch that touches most of the graph is priced out while seeding:
   it recomputes on the published snapshot and never starts refining. *)
let test_wide_batch_recomputes_at_once () =
  with_counters (fun () ->
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
      let refinements = counter "sparse.ball_expansions" in
      let reports, routes =
        routes_during (fun () ->
            Engine.apply_updates engine (Update.random_mixed rng g (Digraph.edge_count g)))
      in
      Alcotest.(check int) "recomputed at once" 1 routes.recompute;
      Alcotest.(check int) "no abort" 0 routes.aborted;
      Alcotest.(check int) "no refinement started" refinements
        (counter "sparse.ball_expansions");
      (match reports with
      | [ r ] -> Alcotest.(check int) "area = |V|" 200 r.Incremental.area
      | _ -> Alcotest.fail "expected one report");
      Alcotest.(check bool) "kernel = batch" true
        (Match_relation.equal
           (Engine.evaluate engine pattern).Engine.relation
           (Bounded_sim.run pattern (Snapshot.of_digraph g))))

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
      ( "routes",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:150 ~name:"route oracle: engine reads = direct evaluation"
               QCheck.small_int (fun seed -> with_counters (fun () -> route_oracle (seed + 1))));
          Alcotest.test_case "oracle took every route" `Quick test_oracle_took_every_route;
          Alcotest.test_case "unit update stays sparse" `Quick test_unit_update_stays_sparse;
          Alcotest.test_case "wide batch recomputes at once" `Quick
            test_wide_batch_recomputes_at_once;
        ] );
    ]
