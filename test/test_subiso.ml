(* Subgraph-isomorphism baseline: correctness on crafted graphs, the
   paper's Example 1 discussion, and containment in the bounded-
   simulation kernel. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
module Collab = Expfinder_workload.Collab

let l s = Label.of_string s

let spec ?(pred = Predicate.always) name label = { Pattern.name; label = Some (l label); pred }

let triangle_graph () =
  (* a triangle A->B->C->A plus a dangling A->B edge *)
  Testkit.of_edges ~labels:[| l "A"; l "B"; l "C"; l "A"; l "B" |]
    [ (0, 1); (1, 2); (2, 0); (3, 4) ]

let triangle_pattern () =
  Pattern.make_exn
    ~nodes:[| spec "A" "A"; spec "B" "B"; spec "C" "C" |]
    ~edges:[ (0, 1, Pattern.Bounded 1); (1, 2, Pattern.Bounded 1); (2, 0, Pattern.Bounded 1) ]
    ~output:0

let test_triangle_found () =
  let g = Snapshot.of_digraph (triangle_graph ()) in
  (* The one embedding is the triangle: the dangling A->B is in none. *)
  Alcotest.(check (list (pair int int))) "the triangle" [ (0, 0); (1, 1); (2, 2) ]
    (List.sort compare (Subiso.matched_pairs (triangle_pattern ()) g))

let test_injectivity () =
  (* two pattern As in a graph with a single A that loops via B *)
  let g = Snapshot.of_digraph (Testkit.of_edges ~labels:[| l "A"; l "B" |] [ (0, 1); (1, 0) ]) in
  let p =
    Pattern.make_exn
      ~nodes:[| spec "A1" "A"; spec "B" "B"; spec "A2" "A" |]
      ~edges:[ (0, 1, Pattern.Bounded 1); (1, 2, Pattern.Bounded 1) ]
      ~output:0
  in
  Alcotest.(check bool) "no injective embedding" false (Subiso.exists p g);
  (* bounded simulation happily maps A1 and A2 to the same node *)
  let m = Bounded_sim.run p g in
  Alcotest.(check bool) "bsim matches" true (Match_relation.is_total m)

let test_bounds_ignored () =
  (* pattern edge with bound 3 still requires a DIRECT edge under iso *)
  let g = Snapshot.of_digraph (Testkit.of_edges ~labels:[| l "A"; l "X"; l "B" |] [ (0, 1); (1, 2) ]) in
  let p =
    Pattern.make_exn ~nodes:[| spec "A" "A"; spec "B" "B" |]
      ~edges:[ (0, 1, Pattern.Bounded 3) ]
      ~output:0
  in
  Alcotest.(check bool) "iso needs direct edge" false (Subiso.exists p g);
  Alcotest.(check bool) "bsim crosses the path" true
    (Match_relation.is_total (Bounded_sim.run p g))

let test_predicates_respected () =
  let g =
    Snapshot.of_digraph
      (Testkit.of_edges ~labels:[| l "A"; l "B" |]
         ~attrs:(fun i -> Attrs.of_list [ Attrs.int "exp" i ])
         [ (0, 1) ])
  in
  let ok = Pattern.make_exn ~nodes:[| spec "A" "A"; spec ~pred:(Predicate.ge_int "exp" 1) "B" "B" |]
      ~edges:[ (0, 1, Pattern.Bounded 1) ] ~output:0 in
  let too_strict = Pattern.make_exn
      ~nodes:[| spec ~pred:(Predicate.ge_int "exp" 1) "A" "A"; spec "B" "B" |]
      ~edges:[ (0, 1, Pattern.Bounded 1) ] ~output:0 in
  Alcotest.(check bool) "satisfying embedding" true (Subiso.exists ok g);
  Alcotest.(check bool) "predicate prunes" false (Subiso.exists too_strict g)

let test_cap () =
  (* a bipartite blowup with many embeddings; the cap stops enumeration *)
  let labels = Array.init 12 (fun i -> if i < 6 then l "A" else l "B") in
  let edges = List.concat_map (fun a -> List.init 6 (fun b -> (a, 6 + b))) (List.init 6 Fun.id) in
  let g = Snapshot.of_digraph (Testkit.of_edges ~labels edges) in
  let p =
    Pattern.make_exn ~nodes:[| spec "A" "A"; spec "B" "B" |]
      ~edges:[ (0, 1, Pattern.Bounded 1) ] ~output:0
  in
  (* The 36 embeddings cover all 12 pairs; the first 7 cannot. *)
  Alcotest.(check bool) "capped" true
    (List.length (Subiso.matched_pairs ~max_embeddings:7 p g) < 12);
  Alcotest.(check int) "all of them" 12
    (List.length (Subiso.matched_pairs ~max_embeddings:10_000 p g))

(* The paper's Example 1 discussion: on Fig. 1, isomorphism and plain
   simulation both fail where bounded simulation succeeds. *)
let test_paper_semantics_comparison () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  Alcotest.(check bool) "subgraph isomorphism finds nothing" false (Subiso.exists q g);
  let sim_kernel = Simulation.run (Pattern.to_simulation q) g in
  Alcotest.(check bool) "plain simulation finds nothing" false
    (Match_relation.is_total sim_kernel);
  Alcotest.(check bool) "bounded simulation finds the experts" true
    (Match_relation.is_total (Bounded_sim.run q g))

let labels3 = Array.map Label.of_string [| "A"; "B"; "C" |]

let prop_embeddings_within_kernel seed =
  let rng = Prng.create seed in
  let n = 1 + Prng.int rng 20 in
  let g =
    Snapshot.of_digraph
      (Generators.erdos_renyi rng ~n ~m:(Prng.int rng (3 * n)) (fun _ ->
           (Prng.choose rng labels3, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 3) ])))
  in
  let pattern =
    Testkit.generate rng
      { Pattern_gen.default with nodes = 1 + Prng.int rng 3; extra_edges = Prng.int rng 2; max_bound = 2 }
      ~labels:labels3
  in
  let kernel = Bounded_sim.run pattern g in
  List.for_all
    (fun (u, v) -> Match_relation.mem kernel u v)
    (Subiso.matched_pairs ~max_embeddings:200 pattern g)

let qcheck_cases =
  [
    QCheck.Test.make ~count:80 ~name:"embeddings lie within the bsim kernel"
      QCheck.small_int (fun s -> prop_embeddings_within_kernel (s + 1));
  ]

let () =
  Alcotest.run "subiso"
    [
      ( "search",
        [
          Alcotest.test_case "triangle" `Quick test_triangle_found;
          Alcotest.test_case "injectivity" `Quick test_injectivity;
          Alcotest.test_case "bounds ignored" `Quick test_bounds_ignored;
          Alcotest.test_case "predicates" `Quick test_predicates_respected;
          Alcotest.test_case "cap" `Quick test_cap;
        ] );
      ( "semantics",
        [ Alcotest.test_case "paper example 1 comparison" `Quick test_paper_semantics_comparison ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
