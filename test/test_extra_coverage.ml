(* Cross-module edge cases that the per-module suites do not reach:
   exception safety of reusable scratch memory, update-parity semantics,
   maintained-partition stability, multi-artifact stores, and exact
   ranking on a crafted weighted result graph. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
module Collab = Expfinder_workload.Collab
module Queries = Expfinder_workload.Queries
module Synthetic = Expfinder_workload.Synthetic

(* --- Distance scratch is exception-safe -------------------------------- *)

let test_scratch_survives_raising_callback () =
  let l = Label.of_string "A" in
  let g = Snapshot.of_digraph (Digraph.of_edges ~labels:[| l; l; l |] [ (0, 1); (1, 2) ]) in
  let scratch = Distance.make_scratch g in
  (* exists_within raises internally (Found) to short-circuit; afterwards
     the scratch must be clean for the next traversal. *)
  Alcotest.(check bool) "found" true (Distance.exists_within scratch g 0 2 (fun w -> w = 1));
  let seen = ref [] in
  Distance.ball scratch g 0 2 (fun w d -> seen := (w, d) :: !seen);
  Alcotest.(check (list (pair int int))) "scratch reset between calls" [ (1, 1); (2, 2) ]
    (List.sort compare !seen);
  (* A user callback that raises must also leave the scratch clean. *)
  (try Distance.ball scratch g 0 2 (fun _ _ -> failwith "user error") with Failure _ -> ());
  let again = ref 0 in
  Distance.ball scratch g 0 2 (fun _ _ -> incr again);
  Alcotest.(check int) "clean after user exception" 2 !again

(* --- Update parity semantics ------------------------------------------- *)

let test_net_edge_changes_parity () =
  let g = Collab.graph () in
  (* insert then delete the same edge: no net change *)
  let batch = [ Update.Insert_edge (0, 3); Update.Delete_edge (0, 3) ] in
  let effective = Update.apply_batch_filtered g batch in
  Alcotest.(check int) "both effective" 2 (List.length effective);
  let ins, del = Update.net_edge_changes g effective in
  Alcotest.(check (list (pair int int))) "no net insert" [] ins;
  Alcotest.(check (list (pair int int))) "no net delete" [] del;
  (* delete an existing edge then reinsert it: also no net change *)
  let batch = [ Update.Delete_edge (1, 4); Update.Insert_edge (1, 4) ] in
  let effective = Update.apply_batch_filtered g batch in
  let ins, del = Update.net_edge_changes g effective in
  Alcotest.(check int) "toggled back" 0 (List.length ins + List.length del);
  (* triple toggle: net insertion *)
  let batch =
    [ Update.Insert_edge (0, 3); Update.Delete_edge (0, 3); Update.Insert_edge (0, 3) ]
  in
  let effective = Update.apply_batch_filtered g batch in
  let ins, del = Update.net_edge_changes g effective in
  Alcotest.(check (list (pair int int))) "net insert" [ (0, 3) ] ins;
  Alcotest.(check (list (pair int int))) "no delete" [] del

let test_apply_batch_filtered_drops_noops () =
  let g = Collab.graph () in
  let batch = [ Update.Insert_edge (1, 4) (* already exists *); Update.Insert_edge (0, 3) ] in
  let effective = Update.apply_batch_filtered g batch in
  Alcotest.(check int) "one effective" 1 (List.length effective)

(* --- maintained bisimulation partition stays a bisimulation ------------- *)

let prop_maintained_partition_stable seed =
  let rng = Prng.create seed in
  let g = Synthetic.org rng ~teams:8 ~team_size:4 in
  let inc = Inc_compress.create ~atoms:Queries.atom_universe g in
  let ok = ref true in
  for _round = 1 to 3 do
    let updates = Update.random_mixed rng g (1 + Prng.int rng 5) in
    let _ = Inc_compress.apply_updates inc g updates in
    let compressed = Inc_compress.current inc in
    let snap = Inc_compress.snapshot inc in
    let partition =
      Array.init (Snapshot.node_count snap) (fun v -> Compress.block_of compressed v)
    in
    if
      not
        (Bisimulation.is_stable (Snapshot.csr snap)
           ~key:(Compress.signature_key (Compress.atoms compressed) snap)
           partition)
    then ok := false
  done;
  !ok

(* --- exact ranking on a crafted weighted result graph -------------------- *)

let test_ranking_on_crafted_graph () =
  (* Pattern A -(3)-> B over a path graph a0 -> x -> b0, plus a1 -> b0:
     matches A:{a0,a1}, B:{b0}; Gr edges a0->b0 (2), a1->b0 (1).
     f(A,a0) = 2/1, f(A,a1) = 1/1, so a1 is top-1. *)
  let la = Label.of_string "A" and lb = Label.of_string "B" and lx = Label.of_string "X" in
  let g =
    Snapshot.of_digraph
      (Digraph.of_edges ~labels:[| la; lx; lb; la |] [ (0, 1); (1, 2); (3, 2) ])
  in
  let q =
    Pattern.make_exn
      ~nodes:
        [|
          { Pattern.name = "A"; label = Some la; pred = Predicate.always };
          { Pattern.name = "B"; label = Some lb; pred = Predicate.always };
        |]
      ~edges:[ (0, 1, Pattern.Bounded 3) ]
      ~output:0
  in
  let m = Bounded_sim.run q g in
  let gr = Result_graph.build q g m in
  Alcotest.(check (option int)) "a0 -> b0 weight 2" (Some 2) (Result_graph.weight gr 0 2);
  Alcotest.(check (option int)) "a1 -> b0 weight 1" (Some 1) (Result_graph.weight gr 3 2);
  let r0 = Ranking.rank_of gr 0 and r3 = Ranking.rank_of gr 3 in
  Alcotest.(check (pair int int)) "f(a0) = 2/1" (2, 1) (r0.Ranking.num, r0.Ranking.den);
  Alcotest.(check (pair int int)) "f(a1) = 1/1" (1, 1) (r3.Ranking.num, r3.Ranking.den);
  (* b0 is ranked by its two ancestors: (2 + 1) / 2. *)
  let rb = Ranking.rank_of gr 2 in
  Alcotest.(check (pair int int)) "f(b0) = 3/2" (3, 2) (rb.Ranking.num, rb.Ranking.den);
  match Ranking.top_k gr ~output_matches:(Match_relation.matches m 0) ~k:1 with
  | [ (v, _) ] -> Alcotest.(check int) "a1 wins" 3 v
  | _ -> Alcotest.fail "expected one"

(* --- pattern generator produces requested unbounded edges ---------------- *)

let test_pattern_gen_unbounded_stats () =
  let rng = Prng.create 8 in
  let labels = Array.map Label.of_string [| "A"; "B" |] in
  let config =
    { Pattern_gen.default with nodes = 4; extra_edges = 2; unbounded_prob = 1.0 }
  in
  let p = Pattern_gen.generate rng config ~labels in
  Alcotest.(check bool) "all edges unbounded" true
    (List.for_all (fun (_, _, b) -> b = Pattern.Unbounded) (Pattern.edges p));
  Alcotest.(check bool) "max_bound none" true (Pattern.max_bound p = None)

let qcheck_cases =
  [
    QCheck.Test.make ~count:30 ~name:"maintained partition is a bisimulation"
      QCheck.small_int (fun s -> prop_maintained_partition_stable (s + 1));
  ]

let () =
  Alcotest.run "extra_coverage"
    [
      ( "robustness",
        [
          Alcotest.test_case "scratch exception safety" `Quick
            test_scratch_survives_raising_callback;
        ] );
      ( "updates",
        [
          Alcotest.test_case "net-change parity" `Quick test_net_edge_changes_parity;
          Alcotest.test_case "filtered no-ops" `Quick test_apply_batch_filtered_drops_noops;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "crafted ranking" `Quick test_ranking_on_crafted_graph;
          Alcotest.test_case "unbounded generator" `Quick test_pattern_gen_unbounded_stats;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
