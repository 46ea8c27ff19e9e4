(* Query planner: candidate ordering, early exit, pruning, strategy
   choice — and above all, plan-execution equivalence with the unplanned
   engines. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
module Collab = Expfinder_workload.Collab

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let random_graph rng =
  let n = 1 + Prng.int rng 30 in
  let m = Prng.int rng (3 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ]))

let random_pattern rng ~simulation =
  let c =
    {
      Pattern_gen.default with
      nodes = 1 + Prng.int rng 4;
      extra_edges = Prng.int rng 3;
      max_bound = 3;
      condition_prob = 0.5;
      condition_range = (0, 3);
    }
  in
  let c = if simulation then Pattern_gen.simulation_config c else c in
  Testkit.generate rng c ~labels

let test_candidate_order_sorted () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let plan = Planner.plan (Collab.query ()) g in
  let sorted = ref true in
  Array.iteri
    (fun i u ->
      if i > 0 then begin
        let prev = plan.Planner.candidate_order.(i - 1) in
        if plan.Planner.estimates.(prev) > plan.Planner.estimates.(u) then sorted := false
      end)
    plan.Planner.candidate_order;
  Alcotest.(check bool) "ascending estimates" true !sorted;
  Alcotest.(check int) "order is a permutation" (Pattern.size (Collab.query ()))
    (List.length (List.sort_uniq compare (Array.to_list plan.Planner.candidate_order)))

let test_estimates_reasonable () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let plan = Planner.plan q g in
  (* SA with exp >= 5: exactly Walt and Bob; the estimate probes the full
     population here, so it is exact. *)
  Alcotest.(check bool) "SA estimate = 2" true (plan.Planner.estimates.(0) = 2.0);
  Alcotest.(check bool) "SD estimate = 4" true (plan.Planner.estimates.(1) = 4.0)

let test_prunable_flags () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let plan = Planner.plan q g in
  Alcotest.(check bool) "SA has out edges -> prunable" true plan.Planner.prunable.(0);
  (* BA has no outgoing pattern edges. *)
  Alcotest.(check bool) "BA not prunable" false plan.Planner.prunable.(2)

let test_strategy_choice () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let sim_plan = Planner.plan (Collab.q1 ()) g in
  Alcotest.(check bool) "bound-1 -> simulation" true
    (sim_plan.Planner.strategy = Planner.Use_simulation);
  let bsim_plan = Planner.plan (Collab.query ()) g in
  Alcotest.(check bool) "bounded -> bounded strategy" true
    (bsim_plan.Planner.strategy = Planner.Use_bounded)

let test_early_exit_on_impossible () =
  (* A label absent from the graph: the plan must answer empty without
     touching the other candidate sets. *)
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let nodes =
    [|
      { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always };
      { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always };
    |]
  in
  let q = Pattern.make_exn ~nodes ~edges:[ (0, 1, Pattern.Bounded 2) ] ~output:0 in
  let m = Planner.run q g in
  Alcotest.(check int) "empty kernel" 0 (Match_relation.total m);
  Alcotest.(check bool) "not total" false (Match_relation.is_total m)

let test_explain_mentions_everything () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let text = Planner.explain q (Planner.plan q g) in
  List.iter
    (fun needle ->
      let n = String.length text and k = String.length needle in
      let rec scan i = i + k <= n && (String.sub text i k = needle || scan (i + 1)) in
      Alcotest.(check bool) ("explain mentions " ^ needle) true (scan 0))
    [ "SA"; "SD"; "BA"; "ST"; "strategy"; "candidates" ]

let contains text needle =
  let n = String.length text and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub text i k = needle || scan (i + 1)) in
  scan 0

let test_execute_records_actuals () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let m, plan = Planner.run_with_plan q g in
  Alcotest.(check bool) "kernel is total" true (Match_relation.is_total m);
  match plan.Planner.actuals with
  | None -> Alcotest.fail "execute must record actuals"
  | Some { Planner.candidates; matched } ->
    (* The Fig. 1 estimates are exact (full-population probes), so every
       candidate set matches its estimate and nothing is misestimated. *)
    Array.iteri
      (fun u est ->
        Alcotest.(check int)
          (Printf.sprintf "node %d actual = estimate" u)
          (int_of_float est) candidates.(u))
      plan.Planner.estimates;
    (* SD keeps Mat/Dan/Pat of its 4 candidates; refinement removed Fred. *)
    Alcotest.(check int) "SD matched 3 of 4" 3 matched.(1);
    Alcotest.(check int) "SA matched both" 2 matched.(0)

let test_early_exit_actuals_sentinel () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let nodes =
    [|
      { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always };
      { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always };
    |]
  in
  let q = Pattern.make_exn ~nodes ~edges:[ (0, 1, Pattern.Bounded 2) ] ~output:0 in
  let _, plan = Planner.run_with_plan q g in
  match plan.Planner.actuals with
  | None -> Alcotest.fail "early exit still records actuals"
  | Some { Planner.candidates; matched } ->
    (* CEO (no candidates) exits first; SA's set is never materialised. *)
    Alcotest.(check int) "empty node has 0 candidates" 0 candidates.(1);
    Alcotest.(check int) "unmaterialised node is -1" (-1) candidates.(0);
    Alcotest.(check int) "nothing matched" 0 (matched.(0) + matched.(1))

let test_explain_analyze_table () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let _, plan = Planner.run_with_plan q g in
  let text = Planner.explain_analyze q plan in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("explain_analyze mentions " ^ needle) true (contains text needle))
    [ "est.cand"; "act.cand"; "matched"; "removed"; "SA"; "SD" ];
  (* Without execution there is no table, only a note. *)
  let unexecuted = Planner.explain_analyze q (Planner.plan q g) in
  Alcotest.(check bool)
    "unexecuted plan says so" true
    (contains unexecuted "not executed")

let test_misestimate_counter () =
  let open Expfinder_telemetry in
  let c = Metrics.counter "planner.misestimate" in
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let before = Counter.value c in
  let _ = Planner.run q g in
  Alcotest.(check int) "exact estimates: no misestimate" before (Counter.value c);
  (* Cook a plan whose estimates are wildly off: with smoothing,
     (60+1)/(2+1) > 4 flags SA (2 actual candidates). *)
  let plan = Planner.plan q g in
  Array.fill plan.Planner.estimates 0 (Array.length plan.Planner.estimates) 60.0;
  let _ = Planner.execute plan q g in
  Alcotest.(check bool) "misestimates counted" true (Counter.value c > before)

let prop_planned_equals_unplanned ~simulation seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation in
  let unplanned =
    if Pattern.is_simulation_pattern pattern then Simulation.run pattern g
    else Bounded_sim.run pattern g
  in
  let planned = Planner.run pattern g in
  (* Degree pruning and early exit may shave pairs out of a non-total
     kernel, but never change totality or the total kernel itself. *)
  if Match_relation.is_total unplanned then Match_relation.equal planned unplanned
  else not (Match_relation.is_total planned)

let prop_planned_subset_of_unplanned seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false in
  let unplanned = Bounded_sim.run pattern g in
  let planned = Planner.run pattern g in
  List.for_all (fun (u, v) -> Match_relation.mem unplanned u v) (Match_relation.pairs planned)

let qcheck_cases =
  [
    QCheck.Test.make ~count:80 ~name:"planned sim = unplanned" QCheck.small_int (fun s ->
        prop_planned_equals_unplanned ~simulation:true (s + 1));
    QCheck.Test.make ~count:80 ~name:"planned bsim = unplanned" QCheck.small_int (fun s ->
        prop_planned_equals_unplanned ~simulation:false (s + 1));
    QCheck.Test.make ~count:60 ~name:"planned kernel never adds pairs" QCheck.small_int
      (fun s -> prop_planned_subset_of_unplanned (s + 1));
  ]

let () =
  Alcotest.run "planner"
    [
      ( "plan",
        [
          Alcotest.test_case "candidate order" `Quick test_candidate_order_sorted;
          Alcotest.test_case "estimates" `Quick test_estimates_reasonable;
          Alcotest.test_case "prunable flags" `Quick test_prunable_flags;
          Alcotest.test_case "strategy choice" `Quick test_strategy_choice;
          Alcotest.test_case "early exit" `Quick test_early_exit_on_impossible;
          Alcotest.test_case "explain" `Quick test_explain_mentions_everything;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "execute records actuals" `Quick test_execute_records_actuals;
          Alcotest.test_case "early-exit sentinel" `Quick test_early_exit_actuals_sentinel;
          Alcotest.test_case "explain_analyze table" `Quick test_explain_analyze_table;
          Alcotest.test_case "misestimate counter" `Quick test_misestimate_counter;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
