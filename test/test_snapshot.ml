(* Snapshot identity, epoch publication, the copy-on-write
   [Snapshot.advance], and the batched query service: the engine-facing contract that every answer is
   computed against one immutable, identity-keyed view of the graph. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_engine
module Telemetry = Expfinder_telemetry
module Collab = Expfinder_workload.Collab
module Queries = Expfinder_workload.Queries
module Synthetic = Expfinder_workload.Synthetic

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let random_digraph ?(max_n = 25) rng =
  let n = 2 + Prng.int rng max_n in
  let m = Prng.int rng (3 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ]))

(* --- identity ---------------------------------------------------------- *)

let test_identity () =
  let g = Collab.graph () in
  let s = Snapshot.of_digraph g in
  Alcotest.(check int) "graph id" (Digraph.graph_id g) (Snapshot.graph_id s);
  Alcotest.(check int) "epoch = digraph version" (Digraph.version g) (Snapshot.epoch s);
  let s' = Snapshot.of_digraph g in
  Alcotest.(check bool) "separately built snapshots agree" true
    (Snapshot.identity_equal (Snapshot.id s) (Snapshot.id s'));
  ignore (Digraph.add_edge g 0 3 : bool);
  Alcotest.(check bool) "mutation changes identity" false
    (Snapshot.identity_equal (Snapshot.id s) (Snapshot.id (Snapshot.of_digraph g)))

let test_copy_gets_fresh_graph_id () =
  let g = Collab.graph () in
  let c1 = Digraph.copy g and c2 = Digraph.copy g in
  Alcotest.(check bool) "copies distinct from original" true
    (Digraph.graph_id c1 <> Digraph.graph_id g);
  Alcotest.(check bool) "copies distinct from each other" true
    (Digraph.graph_id c1 <> Digraph.graph_id c2);
  (* Both copies sit at version 0 — only the graph id separates them. *)
  Alcotest.(check int) "both at epoch 0" (Digraph.version c1) (Digraph.version c2);
  Alcotest.(check bool) "identities still distinct" false
    (Snapshot.identity_equal
       (Snapshot.id (Snapshot.of_digraph c1))
       (Snapshot.id (Snapshot.of_digraph c2)))

(* --- copy-on-write advance -------------------------------------------- *)

let sorted_succ s v = List.sort compare (Snapshot.fold_succ s v (fun acc w -> w :: acc) [])

let sorted_pred s v = List.sort compare (Snapshot.fold_pred s v (fun acc w -> w :: acc) [])

let same_structure a b =
  Snapshot.node_count a = Snapshot.node_count b
  && Snapshot.edge_count a = Snapshot.edge_count b
  &&
  let ok = ref true in
  Snapshot.iter_nodes a (fun v ->
      if not (Label.equal (Snapshot.label a v) (Snapshot.label b v)) then ok := false;
      if sorted_succ a v <> sorted_succ b v then ok := false;
      if sorted_pred a v <> sorted_pred b v then ok := false);
  !ok

let prop_advance_equals_rebuild seed =
  let rng = Prng.create seed in
  let g = random_digraph rng in
  let before = Snapshot.of_digraph g in
  let updates = Update.random_mixed rng g (1 + Prng.int rng 8) in
  let effective = Update.apply_batch_filtered g updates in
  let added, removed = Update.net_edge_changes g effective in
  let advanced =
    Snapshot.advance before ~version:(Digraph.version g) ~added ~removed
  in
  let fresh = Snapshot.of_digraph g in
  Snapshot.identity_equal (Snapshot.id advanced) (Snapshot.id fresh)
  && same_structure advanced fresh

(* One node takes several deletions and insertions in both directions
   in the same batch: its forward and reverse rows are filtered, not
   copied, and must still equal a rebuild. *)
let test_advance_one_node_many_changes () =
  let g = Digraph.create () in
  for _ = 0 to 9 do
    ignore (Digraph.add_node g (Label.of_string "A") : int)
  done;
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v : bool))
    [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5); (6, 0); (7, 0); (8, 0); (3, 4); (9, 1) ];
  let before = Snapshot.of_digraph g in
  let updates =
    Update.
      [
        Delete_edge (0, 1);
        Delete_edge (0, 3);
        Insert_edge (0, 6);
        Delete_edge (0, 5);
        Delete_edge (7, 0);
        Insert_edge (2, 0);
        Insert_edge (0, 9);
        Delete_edge (6, 0);
        Insert_edge (4, 0);
        Delete_edge (9, 1);
      ]
  in
  let effective = Update.apply_batch_filtered g updates in
  Alcotest.(check int) "all effective" (List.length updates) (List.length effective);
  let added, removed = Update.net_edge_changes g effective in
  let advanced = Snapshot.advance before ~version:(Digraph.version g) ~added ~removed in
  Alcotest.(check bool) "advance = rebuild" true
    (same_structure advanced (Snapshot.of_digraph g));
  Alcotest.(check (list int)) "pinned epoch keeps its rows" [ 1; 2; 3; 4; 5 ]
    (sorted_succ before 0);
  Alcotest.check_raises "absent removed edge rejected"
    (Invalid_argument "Csr.patched: removed edge not present") (fun () ->
      ignore
        (Snapshot.advance before ~version:(Digraph.version g + 1) ~added:[]
           ~removed:[ (0, 1); (0, 8) ]
          : Snapshot.t))

let edge_set s =
  let t = Hashtbl.create 64 in
  Snapshot.iter_edges s (fun u v -> Hashtbl.replace t (u, v) ());
  t

let prop_net_changes_match_epoch_delta seed =
  (* [net_edge_changes] must report exactly the symmetric difference of
     the edge sets before and after the batch — toggles cancel. *)
  let rng = Prng.create seed in
  let g = random_digraph rng in
  let before = edge_set (Snapshot.of_digraph g) in
  let updates = Update.random_mixed rng g (1 + Prng.int rng 8) in
  (* Inject explicit toggles so cancellation paths are exercised. *)
  let updates =
    match updates with
    | Update.Insert_edge (a, b) :: rest ->
      (Update.Insert_edge (a, b) :: Update.Delete_edge (a, b) :: Update.Insert_edge (a, b)
       :: rest)
    | rest -> rest
  in
  let effective = Update.apply_batch_filtered g updates in
  let added, removed = Update.net_edge_changes g effective in
  let after = edge_set (Snapshot.of_digraph g) in
  let observed_added =
    Hashtbl.fold (fun e () acc -> if Hashtbl.mem before e then acc else e :: acc) after []
  in
  let observed_removed =
    Hashtbl.fold (fun e () acc -> if Hashtbl.mem after e then acc else e :: acc) before []
  in
  List.sort compare added = List.sort compare observed_added
  && List.sort compare removed = List.sort compare observed_removed

let test_toggle_cancellation () =
  let g = Collab.graph () in
  let s0 = Snapshot.of_digraph g in
  let batch = [ Update.Insert_edge (0, 3); Update.Delete_edge (0, 3) ] in
  let effective = Update.apply_batch_filtered g batch in
  Alcotest.(check int) "both effective" 2 (List.length effective);
  let added, removed = Update.net_edge_changes g effective in
  Alcotest.(check (list (pair int int))) "toggle cancels: no insert" [] added;
  Alcotest.(check (list (pair int int))) "toggle cancels: no delete" [] removed;
  let s1 = Snapshot.advance s0 ~version:(Digraph.version g) ~added ~removed in
  Alcotest.(check bool) "empty delta advances structure unchanged" true
    (same_structure s0 s1);
  Alcotest.(check bool) "but the epoch moved" true (Snapshot.epoch s1 > Snapshot.epoch s0)

(* --- engine epoch discipline ------------------------------------------- *)

let counter name =
  match List.assoc_opt name (Telemetry.Metrics.counters_snapshot ()) with
  | Some v -> v
  | None -> 0

(* Every effective batch publishes a snapshot rebuilt from the digraph,
   whatever it changes; a batch that changes nothing publishes nothing. *)
let test_engine_publishes_rebuilds () =
  let g = Synthetic.flat (Prng.create 5) ~n:300 ~avg_degree:4 in
  let engine = Engine.create g in
  let published label updates =
    let rebuilds0 = counter "engine.snapshot_rebuilds" in
    ignore (Engine.apply_updates engine updates : Incremental.report list);
    let s = Engine.snapshot engine in
    let sid = Snapshot.id s in
    Alcotest.(check (pair int int))
      (label ^ ": identity is (graph_id, version)")
      (Digraph.graph_id g, Digraph.version g)
      (sid.Snapshot.graph_id, sid.Snapshot.epoch);
    Alcotest.(check bool) (label ^ ": equals a fresh build") true
      (same_structure s (Snapshot.of_digraph g));
    Alcotest.(check int) (label ^ ": one rebuild") (rebuilds0 + 1)
      (counter "engine.snapshot_rebuilds")
  in
  published "pure-edge batch" (Update.random_mixed (Prng.create 6) g 4);
  let fresh = Digraph.node_count g in
  published "node-inserting batch"
    [ Update.Insert_node (Label.of_string "SA", Attrs.empty); Update.Insert_edge (0, fresh) ];
  Alcotest.(check int) "the new node is published" (fresh + 1)
    (Snapshot.node_count (Engine.snapshot engine));
  (* Inserting an edge that is present is a no-op. *)
  let sid = Snapshot.id (Engine.snapshot engine) in
  let rebuilds0 = counter "engine.snapshot_rebuilds" in
  ignore
    (Engine.apply_updates engine [ Update.Insert_edge (0, fresh) ]
      : Incremental.report list);
  Alcotest.(check bool) "no-op batch keeps the identity" true
    (Snapshot.identity_equal sid (Snapshot.id (Engine.snapshot engine)));
  Alcotest.(check int) "no-op batch rebuilds nothing" rebuilds0
    (counter "engine.snapshot_rebuilds")

let random_edge_updates rng g k = Update.random_mixed rng g k

let prop_queries_fresh_after_updates seed =
  (* Interleave update batches with per-query and batched evaluation;
     every answer must match direct evaluation on the post-update
     graph. *)
  let rng = Prng.create seed in
  let g = Synthetic.org rng ~teams:6 ~team_size:5 in
  let engine = Engine.create g in
  let queries = Queries.workload rng ~count:4 ~simulation:false g in
  let ok = ref true in
  for round = 1 to 4 do
    let updates = random_edge_updates rng g (1 + Prng.int rng 5) in
    ignore (Engine.apply_updates engine updates : Incremental.report list);
    let fresh = Snapshot.of_digraph (Engine.graph engine) in
    let check_one q (a : Engine.answer) =
      let direct =
        if Pattern.is_simulation_pattern q then Simulation.run q fresh
        else Bounded_sim.run q fresh
      in
      if not (Verify.semantically_equal a.Engine.relation direct) then ok := false
    in
    if round mod 2 = 0 then
      List.iter2 check_one queries (Engine.evaluate_batch engine queries)
    else List.iter (fun q -> check_one q (Engine.evaluate engine q)) queries
  done;
  !ok

(* --- batched evaluation ------------------------------------------------ *)

(* Runs [f] with the differential checker (EXPFINDER_CHECK=1) off: it
   re-runs answers through direct evaluation, whose scans and plans
   would count too. *)
let counting f =
  let was_differential = Verify.differential () in
  Verify.set_differential false;
  Fun.protect ~finally:(fun () -> Verify.set_differential was_differential) f

(* A batch answers each member by the route a lone [evaluate] takes, so
   it scans no more than the sequential loop; evaluating supersets first
   never loses a containment hit that input order finds. *)
let test_batch_equals_sequential_without_more_scans () =
  counting (fun () ->
      let g = Synthetic.org (Prng.create 11) ~teams:10 ~team_size:6 in
      let queries = Queries.workload (Prng.create 13) ~count:8 ~simulation:false g in
      let seq_engine = Engine.create g in
      let s0 = counter "candidates.scans" in
      let seq = List.map (fun q -> Engine.evaluate seq_engine q) queries in
      let seq_scans = counter "candidates.scans" - s0 in
      let batch_engine = Engine.create g in
      let s1 = counter "candidates.scans" in
      let batch = Engine.evaluate_batch batch_engine queries in
      let batch_scans = counter "candidates.scans" - s1 in
      List.iter2
        (fun (a : Engine.answer) (b : Engine.answer) ->
          Alcotest.(check bool) "batch answer equals per-query answer" true
            (Verify.semantically_equal a.Engine.relation b.Engine.relation);
          Alcotest.(check bool) "total flag agrees" true (a.Engine.total = b.Engine.total))
        seq batch;
      Alcotest.(check bool)
        (Printf.sprintf "batch scans no more (%d <= %d)" batch_scans seq_scans)
        true
        (batch_scans <= seq_scans))

(* After an effective update clears the cache, a batch of registered
   patterns (one repeated) is served from the epoch's maintained
   kernels: no candidate scan, no plan. *)
let test_batch_serves_registered_members () =
  counting @@ fun () ->
  let g = Synthetic.org (Prng.create 11) ~teams:10 ~team_size:6 in
  let engine = Engine.create g in
  let patterns = Queries.workload (Prng.create 13) ~count:4 ~simulation:false g in
  List.iter (Engine.register engine) patterns;
  let epoch0 = Snapshot.epoch (Engine.snapshot engine) in
  ignore
    (Engine.apply_updates engine (Update.random_mixed (Prng.create 17) g 6)
      : Incremental.report list);
  Alcotest.(check bool) "the update was effective" true
    (Snapshot.epoch (Engine.snapshot engine) <> epoch0);
  let scans0 = counter "candidates.scans" and plans0 = counter "planner.plans" in
  let answers = Engine.evaluate_batch engine (patterns @ [ List.hd patterns ]) in
  Alcotest.(check int) "no candidate scan" scans0 (counter "candidates.scans");
  Alcotest.(check int) "no plan" plans0 (counter "planner.plans");
  let snap = Engine.snapshot engine in
  List.iter2
    (fun q (a : Engine.answer) ->
      Alcotest.(check bool) "registered answer = Planner.run" true
        (Verify.semantically_equal a.Engine.relation (Planner.run q snap)))
    (patterns @ [ List.hd patterns ])
    answers

(* On a graph where compression pays, every batch member takes the
   route [evaluate] takes on a twin engine, compressed graph included. *)
let test_batch_reads_compressed_graph () =
  let g = Synthetic.org (Prng.create 123) ~teams:30 ~team_size:6 in
  let twin_g = Digraph.copy g in
  let patterns = Queries.workload (Prng.create 9) ~count:8 ~simulation:false g in
  let engine = Engine.create g and twin = Engine.create twin_g in
  List.iter
    (fun e -> Engine.enable_compression ~atoms:Queries.atom_universe e)
    [ engine; twin ];
  Alcotest.(check bool) "compression pays on this graph" true
    (Engine.compression engine <> None);
  let batch = Engine.evaluate_batch engine patterns in
  let alone = List.map (Engine.evaluate twin) patterns in
  Alcotest.(check bool) "some member is answered on the compressed graph" true
    (List.exists (fun (a : Engine.answer) -> a.Engine.provenance = Engine.From_compressed) alone);
  List.iter2
    (fun (b : Engine.answer) (a : Engine.answer) ->
      Alcotest.(check bool) "provenance as evaluate's" true
        (a.Engine.provenance = b.Engine.provenance);
      Alcotest.(check bool) "answer as evaluate's" true
        (Verify.semantically_equal a.Engine.relation b.Engine.relation))
    batch alone

let test_batch_duplicates_and_cache () =
  let g = Collab.graph () in
  let engine = Engine.create g in
  let q = Collab.query () in
  (* Duplicates inside one batch are evaluated once and served as cache
     copies, in input order. *)
  match Engine.evaluate_batch engine [ q; Collab.q1 (); q ] with
  | [ a0; _; a2 ] ->
    Alcotest.(check bool) "duplicate answer equal" true
      (Match_relation.equal a0.Engine.relation a2.Engine.relation);
    Alcotest.(check bool) "duplicate served from cache" true
      (a2.Engine.provenance = Engine.From_cache);
    (* A second batch on the same epoch is all cache hits. *)
    (match Engine.evaluate_batch engine [ q ] with
    | [ a ] ->
      Alcotest.(check bool) "warm batch hits cache" true
        (a.Engine.provenance = Engine.From_cache)
    | _ -> Alcotest.fail "expected one answer")
  | _ -> Alcotest.fail "expected three answers"

let test_batch_empty_and_mutation_isolation () =
  let engine = Engine.create (Collab.graph ()) in
  Alcotest.(check int) "empty batch" 0 (List.length (Engine.evaluate_batch engine []));
  (* Answers must be private copies: mutating one must not corrupt the
     cache serving the next call. *)
  let q = Collab.query () in
  (match Engine.evaluate_batch engine [ q ] with
  | [ a ] -> Match_relation.remove a.Engine.relation 0 Collab.bob
  | _ -> Alcotest.fail "expected one answer");
  match Engine.evaluate_batch engine [ q ] with
  | [ a ] ->
    Alcotest.(check bool) "cache unharmed by caller mutation" true
      (Match_relation.mem a.Engine.relation 0 Collab.bob)
  | _ -> Alcotest.fail "expected one answer"

let qcheck_cases =
  [
    QCheck.Test.make ~count:60 ~name:"advance = rebuild" QCheck.small_int (fun s ->
        prop_advance_equals_rebuild (s + 1));
    QCheck.Test.make ~count:60 ~name:"net changes = observed epoch delta" QCheck.small_int
      (fun s -> prop_net_changes_match_epoch_delta (s + 1));
    QCheck.Test.make ~count:20 ~name:"queries stay fresh across updates" QCheck.small_int
      (fun s -> prop_queries_fresh_after_updates (s + 1));
  ]

let () =
  Alcotest.run "snapshot"
    [
      ( "identity",
        [
          Alcotest.test_case "graph id and epoch" `Quick test_identity;
          Alcotest.test_case "copies get fresh ids" `Quick test_copy_gets_fresh_graph_id;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "toggle cancellation" `Quick test_toggle_cancellation;
          Alcotest.test_case "engine publishes every batch by rebuild" `Quick
            test_engine_publishes_rebuilds;
          Alcotest.test_case "one node, many changes" `Quick test_advance_one_node_many_changes;
        ] );
      ( "batch",
        [
          Alcotest.test_case "equals sequential, no more scans" `Quick
            test_batch_equals_sequential_without_more_scans;
          Alcotest.test_case "registered members" `Quick test_batch_serves_registered_members;
          Alcotest.test_case "compressed members" `Quick test_batch_reads_compressed_graph;
          Alcotest.test_case "duplicates and cache" `Quick test_batch_duplicates_and_cache;
          Alcotest.test_case "empty batch and isolation" `Quick
            test_batch_empty_and_mutation_isolation;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
