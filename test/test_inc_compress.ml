(* Incremental compressed-graph maintenance: reports, the hybrid
   recompute fallback and drift bounds; and the frozen-node refinement
   of incremental maintenance ([Incremental.refine_over_area]). *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
module Synthetic = Expfinder_workload.Synthetic
module Queries = Expfinder_workload.Queries

let small_org () = Synthetic.org (Prng.create 21) ~teams:20 ~team_size:6

let test_create_matches_fresh () =
  let g = small_org () in
  let inc = Inc_compress.create ~atoms:Queries.atom_universe g in
  Alcotest.(check int) "create = fresh compression"
    (Inc_compress.fresh_block_count inc)
    (Snapshot.node_count (Compress.compressed (Inc_compress.current inc)))

let test_report_fields () =
  let g = small_org () in
  let inc = Inc_compress.create ~atoms:Queries.atom_universe g in
  let before = Snapshot.node_count (Compress.compressed (Inc_compress.current inc)) in
  let report =
    Inc_compress.apply_updates inc g
      [ Update.Insert_edge (0, Digraph.node_count g - 1) ]
  in
  Alcotest.(check int) "one effective" 1 report.Inc_compress.effective;
  Alcotest.(check int) "blocks_before recorded" before report.Inc_compress.blocks_before;
  Alcotest.(check int) "blocks_after matches current" report.Inc_compress.blocks_after
    (Snapshot.node_count (Compress.compressed (Inc_compress.current inc)));
  Alcotest.(check bool) "area is positive" true (report.Inc_compress.area > 0)

let test_no_op_update () =
  let g = small_org () in
  let inc = Inc_compress.create ~atoms:Queries.atom_universe g in
  let before = Snapshot.node_count (Compress.compressed (Inc_compress.current inc)) in
  (* Inserting an existing edge is a no-op: nothing may change. *)
  let u, v =
    let result = ref (0, 0) in
    (try Digraph.iter_edges g (fun a b -> result := (a, b); raise Exit) with Exit -> ());
    !result
  in
  let report = Inc_compress.apply_updates inc g [ Update.Insert_edge (u, v) ] in
  Alcotest.(check int) "zero effective" 0 report.Inc_compress.effective;
  Alcotest.(check int) "blocks unchanged" before report.Inc_compress.blocks_after

let test_hybrid_fallback_restores_optimality () =
  (* A majority-area batch triggers recompression, so drift resets. *)
  let g = small_org () in
  let inc = Inc_compress.create ~atoms:Queries.atom_universe g in
  let rng = Prng.create 5 in
  let updates = Update.random_mixed rng g (Digraph.edge_count g / 2) in
  let report = Inc_compress.apply_updates inc g updates in
  Alcotest.(check int) "coarsest after big batch" (Inc_compress.fresh_block_count inc)
    report.Inc_compress.blocks_after

let test_rebuild_resyncs () =
  let g = small_org () in
  let inc = Inc_compress.create ~atoms:Queries.atom_universe g in
  ignore (Digraph.add_edge g 0 5 : bool);
  (* Direct mutation desynchronises the tracker; apply_updates refuses,
     rebuild resynchronises. *)
  (try
     ignore (Inc_compress.apply_updates inc g [] : Inc_compress.report);
     Alcotest.fail "expected out-of-sync rejection"
   with Invalid_argument _ -> ());
  Inc_compress.rebuild inc g;
  let report = Inc_compress.apply_updates inc g [ Update.Delete_edge (0, 5) ] in
  Alcotest.(check int) "works after rebuild" 1 report.Inc_compress.effective

(* --- Area refinement unit tests -------------------------------------- *)

let chain_graph () =
  (* A -> B -> C chain *)
  let a = Label.of_string "A" and b = Label.of_string "B" and c = Label.of_string "C" in
  Testkit.of_edges ~labels:[| a; b; c |] [ (0, 1); (1, 2) ]

let chain_pattern () =
  Pattern.make_exn
    ~nodes:
      [|
        { Pattern.name = "A"; label = Some (Label.of_string "A"); pred = Predicate.always };
        { Pattern.name = "B"; label = Some (Label.of_string "B"); pred = Predicate.always };
      |]
    ~edges:[ (0, 1, Pattern.Bounded 1) ]
    ~output:0

let test_area_refine_respects_frozen () =
  let g = chain_graph () in
  let p = chain_pattern () in
  (* Initial relation wrongly claims (B-pattern-node, node 2); with node 2
     outside the area it must survive (frozen), and node 0 must then keep
     its membership via... node 1 only. *)
  let initial = Match_relation.of_pairs ~pattern_size:2 ~graph_size:3 [ (0, 0); (1, 1); (1, 2) ] in
  let area = Bitset.create 3 in
  Bitset.add area 0;
  let refined = Incremental.refine_over_area p g ~initial ~area in
  Alcotest.(check bool) "frozen pair kept" true (Match_relation.mem refined 1 2);
  Alcotest.(check bool) "area pair justified and kept" true (Match_relation.mem refined 0 0)

let test_area_refine_removes_unjustified () =
  let g = chain_graph () in
  let p = chain_pattern () in
  (* Node 2 has no successors: as an area member claiming the A-role it
     must be removed. *)
  let initial = Match_relation.of_pairs ~pattern_size:2 ~graph_size:3 [ (0, 2); (1, 1) ] in
  let area = Bitset.create 3 in
  Bitset.add area 2;
  let refined = Incremental.refine_over_area p g ~initial ~area in
  Alcotest.(check bool) "unjustified removed" false (Match_relation.mem refined 0 2)

let test_area_refine_rejects_unbounded () =
  let g = chain_graph () in
  let p =
    Pattern.make_exn
      ~nodes:
        [|
          { Pattern.name = "A"; label = Some (Label.of_string "A"); pred = Predicate.always };
          { Pattern.name = "C"; label = Some (Label.of_string "C"); pred = Predicate.always };
        |]
      ~edges:[ (0, 1, Pattern.Unbounded) ]
      ~output:0
  in
  let initial = Match_relation.create ~pattern_size:2 ~graph_size:3 in
  let area = Bitset.create 3 in
  Alcotest.check_raises "unbounded rejected"
    (Invalid_argument "Incremental.refine_over_area: unbounded pattern edge")
    (fun () -> ignore (Incremental.refine_over_area p g ~initial ~area))

let test_area_refine_distance_two () =
  let g = chain_graph () in
  let p =
    Pattern.make_exn
      ~nodes:
        [|
          { Pattern.name = "A"; label = Some (Label.of_string "A"); pred = Predicate.always };
          { Pattern.name = "C"; label = Some (Label.of_string "C"); pred = Predicate.always };
        |]
      ~edges:[ (0, 1, Pattern.Bounded 2) ]
      ~output:0
  in
  let initial = Match_relation.of_pairs ~pattern_size:2 ~graph_size:3 [ (0, 0); (1, 2) ] in
  let area = Bitset.create 3 in
  Bitset.add area 0;
  Bitset.add area 2;
  let refined = Incremental.refine_over_area p g ~initial ~area in
  Alcotest.(check bool) "A reaches C within 2" true (Match_relation.mem refined 0 0);
  Alcotest.(check bool) "C kept" true (Match_relation.mem refined 1 2)

let () =
  Alcotest.run "inc_compress"
    [
      ( "maintenance",
        [
          Alcotest.test_case "create = fresh" `Quick test_create_matches_fresh;
          Alcotest.test_case "report fields" `Quick test_report_fields;
          Alcotest.test_case "no-op update" `Quick test_no_op_update;
          Alcotest.test_case "hybrid fallback" `Quick test_hybrid_fallback_restores_optimality;
          Alcotest.test_case "rebuild resyncs" `Quick test_rebuild_resyncs;
        ] );
      ( "area_refine",
        [
          Alcotest.test_case "respects frozen" `Quick test_area_refine_respects_frozen;
          Alcotest.test_case "removes unjustified" `Quick test_area_refine_removes_unjustified;
          Alcotest.test_case "rejects unbounded" `Quick test_area_refine_rejects_unbounded;
          Alcotest.test_case "bounded distance 2" `Quick test_area_refine_distance_two;
        ] );
    ]
