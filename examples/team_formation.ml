(* Team formation in an organisation (the paper's motivating scenario at
   scale).

   A company wants a project-manager lead for a medical-record system:
   someone senior who runs a team with a database specialist and a QA
   engineer, and who reports to an experienced architect.  We search an
   organisational network of ~4k people, with graph compression enabled —
   the engine transparently evaluates on the compressed graph.

   Run with: dune exec examples/team_formation.exe *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_compression
open Expfinder_engine
module Synthetic = Expfinder_workload.Synthetic
module Queries = Expfinder_workload.Queries

let () =
  let rng = Prng.create 2024 in
  let network = Synthetic.org rng ~teams:400 ~team_size:9 in
  Printf.printf "organisational network: %d people, %d collaborations\n"
    (Digraph.node_count network) (Digraph.edge_count network);

  let engine = Engine.create network in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  (match Engine.compression engine with
  | Some c ->
    Printf.printf "compressed for querying: %d -> %d nodes (%.1f%% reduction)\n"
      (Snapshot.node_count (Compress.original c))
      (Snapshot.node_count (Compress.compressed c))
      (100.0 *. Compress.node_ratio c)
  | None -> assert false);

  (* The requirements: a senior PM trusted by a seasoned architect (they
     collaborate directly, both directions), whose team includes a senior
     DBA and a QA engineer (both within two collaboration hops of the
     lead). *)
  let lead_query =
    Pattern.make_exn
      ~nodes:
        [|
          { Pattern.name = "lead"; label = Some (Label.of_string "PM"); pred = Predicate.ge_int "exp" 5 };
          { Pattern.name = "dba"; label = Some (Label.of_string "DBA"); pred = Predicate.ge_int "exp" 5 };
          { Pattern.name = "qa"; label = Some (Label.of_string "QA"); pred = Predicate.ge_int "exp" 2 };
          { Pattern.name = "architect"; label = Some (Label.of_string "SA"); pred = Predicate.ge_int "exp" 5 };
        |]
      ~edges:
        [
          (0, 3, Pattern.Bounded 1);
          (3, 0, Pattern.Bounded 1);
          (1, 0, Pattern.Bounded 2);
          (2, 0, Pattern.Bounded 2);
        ]
      ~output:0
  in

  let answer = Engine.evaluate engine lead_query in
  Printf.printf "\nanswered via: %s\n"
    (match answer.Engine.provenance with
    | Engine.From_compressed -> "compressed graph"
    | Engine.From_cache -> "cache"
    | Engine.Direct -> "direct evaluation");
  Printf.printf "candidate leads: %d\n"
    (Match_relation.count answer.Engine.relation (Pattern.output lead_query));

  print_endline "\ntop 5 leads by social impact:";
  List.iteri
    (fun i { Engine.node; rank; _ } ->
      Printf.printf "  #%d person %d (rank %s)\n" (i + 1) node
        (Format.asprintf "%a" Ranking.pp_rank rank))
    (Engine.top_k engine lead_query ~k:5);

  (* Asking again is free: the cache answers. *)
  let again = Engine.evaluate engine lead_query in
  assert (again.Engine.provenance = Engine.From_cache);
  let hits, misses, _evictions = Engine.cache_counters engine in
  Printf.printf "\ncache: %d hits, %d misses\n" hits misses
