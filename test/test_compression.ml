(* Compression: bisimulation partitions, query preservation on the
   compressed graph, incremental maintenance, and the simulation-
   equivalence ablation scheme. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
module Collab = Expfinder_workload.Collab

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let random_graph ?(max_n = 30) rng =
  let n = 1 + Prng.int rng max_n in
  let m = Prng.int rng (3 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ]))

let universe =
  [
    { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 1 };
    { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 2 };
    { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 3 };
  ]

let random_pattern rng ~simulation =
  let c =
    {
      Pattern_gen.default with
      nodes = 1 + Prng.int rng 4;
      extra_edges = Prng.int rng 3;
      max_bound = 3;
      condition_prob = 0.5;
      condition_attr = "exp";
      condition_range = (1, 3);
    }
  in
  let c = if simulation then Pattern_gen.simulation_config c else c in
  Testkit.generate rng c ~labels

(* --- partition structure ------------------------------------------- *)

let test_two_diamonds_merge () =
  (* Two isomorphic, disjoint diamonds must collapse into one. *)
  let a = Label.of_string "A" and b = Label.of_string "B" and c = Label.of_string "C" in
  let labels = [| a; b; b; c; a; b; b; c |] in
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3); (4, 5); (4, 6); (5, 7); (6, 7) ] in
  let g = Csr.of_digraph (Testkit.of_edges ~labels edges) in
  let block_of = Bisimulation.compute g ~key:(fun v -> Label.to_int (Csr.label g v)) in
  Alcotest.(check int) "3 blocks" 3 (Bisimulation.block_count block_of);
  Alcotest.(check int) "roots merged" block_of.(0) block_of.(4);
  Alcotest.(check int) "middles merged" block_of.(1) block_of.(6);
  Alcotest.(check int) "sinks merged" block_of.(3) block_of.(7);
  Alcotest.(check bool) "stable" true
    (Testkit.is_stable g ~key:(fun v -> Label.to_int (Csr.label g v)) block_of)

let test_distinguished_by_depth () =
  (* A -> B -> B -> C: the two B nodes differ (one reaches C directly). *)
  let a = Label.of_string "A" and b = Label.of_string "B" and c = Label.of_string "C" in
  let labels = [| a; b; b; c |] in
  let g = Csr.of_digraph (Testkit.of_edges ~labels [ (0, 1); (1, 2); (2, 3) ]) in
  let block_of = Bisimulation.compute g ~key:(fun v -> Label.to_int (Csr.label g v)) in
  Alcotest.(check int) "4 blocks" 4 (Bisimulation.block_count block_of);
  Alcotest.(check bool) "B nodes split" true (block_of.(1) <> block_of.(2))

let prop_partition_stable seed =
  let rng = Prng.create seed in
  let g = Csr.of_digraph (random_graph rng) in
  let key v = Label.to_int (Csr.label g v) in
  Testkit.is_stable g ~key (Bisimulation.compute g ~key)

(* The limited refinement is the unlimited one cut short: a partition it
   returns is [compute]'s, and a count it stops at is a lower bound on
   [compute]'s, over the limit. *)
let prop_limited_compute seed =
  let rng = Prng.create seed in
  let g = Csr.of_digraph (random_graph rng) in
  let key v = Label.to_int (Csr.label g v) in
  let full = Bisimulation.compute g ~key in
  let limit = Prng.int rng (Csr.node_count g + 2) in
  match Bisimulation.compute_within g ~key ~limit with
  | Bisimulation.Partition p -> p = full && Bisimulation.block_count p <= limit
  | Over_limit { blocks; _ } ->
    blocks > limit && Bisimulation.block_count full >= blocks

(* --- query preservation --------------------------------------------- *)

let prop_query_preserved ~simulation seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let compressed = Compress.compress ~atoms:universe g in
  let pattern = random_pattern rng ~simulation in
  if not (Compress.supports compressed pattern) then true
  else begin
    let direct =
      if Pattern.is_simulation_pattern pattern then Simulation.run pattern g
      else Bounded_sim.run pattern g
    in
    Match_relation.equal direct (Compress.evaluate compressed pattern)
  end

let test_collab_compression () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let atoms =
    [
      { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 2 };
      { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 3 };
      { Predicate.attr = "exp"; op = Predicate.Ge; value = Attr.Int 5 };
    ]
  in
  let compressed = Compress.compress ~atoms g in
  Alcotest.(check bool) "supports Q" true (Compress.supports compressed (Collab.query ()));
  let direct = Bounded_sim.run (Collab.query ()) g in
  Alcotest.(check bool) "Q preserved" true
    (Match_relation.equal direct (Compress.evaluate compressed (Collab.query ())))

let test_unsupported_pattern_rejected () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let compressed = Compress.compress g in
  (* Q uses exp conditions, none of which are in the empty universe. *)
  Alcotest.(check bool) "not supported" false
    (Compress.supports compressed (Collab.query ()));
  Alcotest.check_raises "evaluate rejects"
    (Invalid_argument "Compress.evaluate_compressed: pattern conditions outside the atom universe")
    (fun () -> ignore (Compress.evaluate compressed (Collab.query ()) : Match_relation.t))

let test_ratio_bounds () =
  let rng = Prng.create 11 in
  let g = Snapshot.of_digraph (random_graph rng) in
  let compressed = Compress.compress g in
  let r = Compress.node_ratio compressed in
  Alcotest.(check bool) "ratio in [0,1)" true (r >= 0.0 && r < 1.0);
  let nodes = Snapshot.node_count g and blocks = Snapshot.node_count (Compress.compressed compressed) in
  Alcotest.(check bool) "at most one block per node" true (blocks >= 1 && blocks <= nodes);
  Alcotest.(check (float 1e-9)) "ratio = 1 - |Vc|/|V|"
    (1.0 -. (float_of_int blocks /. float_of_int nodes)) r

(* --- incremental maintenance ---------------------------------------- *)

let prop_maintained_gc_preserves seed =
  let rng = Prng.create seed in
  let g = random_graph rng in
  let inc = Inc_compress.create ~atoms:universe g in
  let ok = ref true in
  for _round = 1 to 3 do
    let updates = Update.random_mixed rng g (1 + Prng.int rng 6) in
    let _ = Inc_compress.apply_updates inc g updates in
    let compressed = Inc_compress.current inc in
    let pattern = random_pattern rng ~simulation:(Testkit.coin rng) in
    if Compress.supports compressed pattern then begin
      let csr = Compress.original compressed in
      let direct =
        if Pattern.is_simulation_pattern pattern then Simulation.run pattern csr
        else Bounded_sim.run pattern csr
      in
      if not (Match_relation.equal direct (Compress.evaluate compressed pattern)) then
        ok := false
    end
  done;
  !ok

let prop_maintained_no_coarser seed =
  (* The maintained partition may be finer than optimal, never coarser. *)
  let rng = Prng.create seed in
  let g = random_graph rng in
  let inc = Inc_compress.create g in
  let updates = Update.random_mixed rng g (1 + Prng.int rng 6) in
  let report = Inc_compress.apply_updates inc g updates in
  report.blocks_after >= Inc_compress.fresh_block_count inc

let qcheck_cases =
  [
    QCheck.Test.make ~count:50 ~name:"partition is stable" QCheck.small_int (fun s ->
        prop_partition_stable (s + 1));
    QCheck.Test.make ~count:300 ~name:"limited compute = compute, or stops over the limit"
      QCheck.small_int (fun s -> prop_limited_compute (s + 1));
    QCheck.Test.make ~count:50 ~name:"sim query preserved" QCheck.small_int (fun s ->
        prop_query_preserved ~simulation:true (s + 1));
    QCheck.Test.make ~count:40 ~name:"bsim query preserved" QCheck.small_int (fun s ->
        prop_query_preserved ~simulation:false (s + 1));
    QCheck.Test.make ~count:30 ~name:"maintained Gc preserves queries" QCheck.small_int
      (fun s -> prop_maintained_gc_preserves (s + 1));
    QCheck.Test.make ~count:30 ~name:"maintained partition never coarser" QCheck.small_int
      (fun s -> prop_maintained_no_coarser (s + 1));
  ]

let () =
  Alcotest.run "compression"
    [
      ( "bisimulation",
        [
          Alcotest.test_case "two diamonds merge" `Quick test_two_diamonds_merge;
          Alcotest.test_case "depth distinguishes" `Quick test_distinguished_by_depth;
        ] );
      ( "compress",
        [
          Alcotest.test_case "collab graph" `Quick test_collab_compression;
          Alcotest.test_case "unsupported rejected" `Quick test_unsupported_pattern_rejected;
          Alcotest.test_case "ratio bounds" `Quick test_ratio_bounds;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
