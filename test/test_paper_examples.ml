(* End-to-end checks of the paper's worked examples (Fig. 1, Examples 1-3).
   These are the ground-truth anchors of the whole reproduction. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
module Collab = Expfinder_workload.Collab

let snapshot () = Snapshot.of_digraph (Collab.graph ())

let run_query g = Bounded_sim.run (Collab.query ()) g

let sorted_matches m u = Match_relation.matches m u

(* Example 1: M(Q,G) = {(SA,Bob),(SA,Walt),(BA,Jean),(SD,Mat),(SD,Dan),
   (SD,Pat),(ST,Eva)}. *)
let test_example1 () =
  let g = snapshot () in
  let m = run_query g in
  Alcotest.(check bool) "M is total" true (Match_relation.is_total m);
  Alcotest.(check (list int)) "SA matches" [ Collab.walt; Collab.bob ] (sorted_matches m 0);
  Alcotest.(check (list int))
    "SD matches"
    (List.sort compare [ Collab.mat; Collab.dan; Collab.pat ])
    (sorted_matches m 1);
  Alcotest.(check (list int)) "BA matches" [ Collab.jean ] (sorted_matches m 2);
  Alcotest.(check (list int)) "ST matches" [ Collab.eva ] (sorted_matches m 3);
  Alcotest.(check int) "7 pairs" 7 (Match_relation.total m)

(* The SA->BA edge is witnessed by a path of length exactly 3 from Bob to
   Jean. *)
let test_example1_path () =
  let g = snapshot () in
  let dist = Distance.distances_from g Collab.bob in
  Alcotest.(check int) "dist(Bob,Jean)" 3 dist.(Collab.jean)

(* The witness kernel, run directly and through the planner, gives
   Example 1's match set, and the consistency oracle accepts it. *)
let test_strategies_agree () =
  let g = snapshot () in
  let q = Collab.query () in
  let expected =
    List.sort compare
      [ (0, Collab.walt); (0, Collab.bob); (1, Collab.dan); (1, Collab.mat); (1, Collab.pat);
        (2, Collab.jean); (3, Collab.eva) ]
  in
  let pairs m = List.sort compare (Match_relation.pairs m) in
  let m = Bounded_sim.run q g in
  Alcotest.(check (list (pair int int))) "witness = Example 1" expected (pairs m);
  Alcotest.(check (list (pair int int))) "planned = Example 1" expected (pairs (Planner.run q g));
  Alcotest.(check bool) "consistent" true (Bounded_sim.consistent q g m)

(* Example 2: f(SA,Bob) = 9/5, f(SA,Walt) = 7/3, Bob is top-1. *)
let test_example2 () =
  let g = snapshot () in
  let q = Collab.query () in
  let m = run_query g in
  let gr = Result_graph.build q g m in
  let rank_bob = Ranking.rank_of gr Collab.bob in
  let rank_walt = Ranking.rank_of gr Collab.walt in
  Alcotest.(check (pair int int)) "f(SA,Bob) = 9/5" (9, 5) (rank_bob.num, rank_bob.den);
  Alcotest.(check (pair int int)) "f(SA,Walt) = 7/3" (7, 3) (rank_walt.num, rank_walt.den);
  let top = Ranking.top_k gr ~output_matches:(Match_relation.matches m (Pattern.output q)) ~k:1 in
  match top with
  | [ (v, _) ] -> Alcotest.(check int) "top-1 is Bob" Collab.bob v
  | _ -> Alcotest.fail "expected exactly one top-1 match"

(* The result graph has exactly the Fig. 1 weighted edges. *)
let test_result_graph_edges () =
  let g = snapshot () in
  let q = Collab.query () in
  let m = run_query g in
  let gr = Result_graph.build q g m in
  let expect = function
    | v, v' -> Result_graph.weight gr v v'
  in
  Alcotest.(check (option int)) "Bob->Dan" (Some 1) (expect (Collab.bob, Collab.dan));
  Alcotest.(check (option int)) "Bob->Pat" (Some 2) (expect (Collab.bob, Collab.pat));
  Alcotest.(check (option int)) "Dan->Bob" (Some 1) (expect (Collab.dan, Collab.bob));
  Alcotest.(check (option int)) "Pat->Bob" (Some 2) (expect (Collab.pat, Collab.bob));
  Alcotest.(check (option int)) "Walt->Mat" (Some 2) (expect (Collab.walt, Collab.mat));
  Alcotest.(check (option int)) "Mat->Walt" (Some 2) (expect (Collab.mat, Collab.walt));
  Alcotest.(check (option int)) "Bob->Jean" (Some 3) (expect (Collab.bob, Collab.jean));
  Alcotest.(check (option int)) "Walt->Jean" (Some 3) (expect (Collab.walt, Collab.jean));
  Alcotest.(check (option int)) "Eva->Jean" (Some 1) (expect (Collab.eva, Collab.jean));
  Alcotest.(check (option int)) "no Bob->Mat" None (expect (Collab.bob, Collab.mat));
  Alcotest.(check int) "9 result edges" 9 (Result_graph.edge_count gr);
  Alcotest.(check int) "7 result nodes" 7 (Result_graph.node_count gr)

(* Example 3 (batch view): inserting e1 adds exactly (SD, Fred). *)
let test_example3_batch () =
  let g0 = Collab.graph () in
  let before = Bounded_sim.run (Collab.query ()) (Snapshot.of_digraph g0) in
  let src, dst = Collab.e1 in
  Alcotest.(check bool) "e1 inserted" true (Digraph.add_edge g0 src dst);
  let after = Bounded_sim.run (Collab.query ()) (Snapshot.of_digraph g0) in
  Alcotest.(check bool) "Fred not matched before" false (Match_relation.mem before 1 Collab.fred);
  Alcotest.(check bool) "Fred matched after" true (Match_relation.mem after 1 Collab.fred);
  let delta =
    List.filter
      (fun (u, v) -> not (Match_relation.mem before u v))
      (Match_relation.pairs after)
  in
  Alcotest.(check (list (pair int int))) "delta = {(SD,Fred)}" [ (1, Collab.fred) ] delta;
  Alcotest.(check int) "nothing removed" (Match_relation.total before + 1)
    (Match_relation.total after)

(* Fig. 4/5: queries Q1-Q3 all have matches and a well-defined top-1. *)
let test_fig5_queries () =
  let g = snapshot () in
  List.iter
    (fun (name, q) ->
      let m = Bounded_sim.run q g in
      Alcotest.(check bool) (name ^ " total") true (Match_relation.is_total m);
      let gr = Result_graph.build q g m in
      let top =
        Ranking.top_k gr ~output_matches:(Match_relation.matches m (Pattern.output q)) ~k:1
      in
      Alcotest.(check int) (name ^ " top-1 exists") 1 (List.length top))
    [ ("Q1", Collab.q1 ()); ("Q2", Collab.q2 ()); ("Q3", Collab.q3 ()) ]

(* Q1 is a plain-simulation pattern, so the simulation engine applies and
   agrees with bounded simulation. *)
let test_q1_simulation () =
  let g = snapshot () in
  let q1 = Collab.q1 () in
  Alcotest.(check bool) "Q1 is simulation" true (Pattern.is_simulation_pattern q1);
  let ms = Simulation.run q1 g in
  let mb = Bounded_sim.run q1 g in
  Alcotest.(check bool) "sim = bsim on bound-1 pattern" true (Match_relation.equal ms mb);
  Alcotest.(check (list int)) "Q1 SA = {Bob}" [ Collab.bob ] (Match_relation.matches ms 0)

let () =
  Alcotest.run "paper_examples"
    [
      ( "fig1",
        [
          Alcotest.test_case "example1 match set" `Quick test_example1;
          Alcotest.test_case "example1 Bob->Jean path" `Quick test_example1_path;
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
          Alcotest.test_case "example2 ranking" `Quick test_example2;
          Alcotest.test_case "result graph edges" `Quick test_result_graph_edges;
          Alcotest.test_case "example3 delta" `Quick test_example3_batch;
          Alcotest.test_case "fig5 queries" `Quick test_fig5_queries;
          Alcotest.test_case "q1 simulation" `Quick test_q1_simulation;
        ] );
    ]
