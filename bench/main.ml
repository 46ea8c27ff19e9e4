(* ExpFinder experiment harness.

   One experiment per table/figure/quantitative claim of the ICDE 2013
   demo paper (see DESIGN.md for the index and EXPERIMENTS.md for
   paper-vs-measured).  Each experiment prints its rows; `--full` runs
   the larger sweeps, `--bechamel` additionally runs one Bechamel
   micro-benchmark per experiment, `--only STR` filters experiments by
   substring. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
open Expfinder_engine
module Telemetry = Expfinder_telemetry
module Parallel = Expfinder_parallel
module Server = Expfinder_server
module Collab = Expfinder_workload.Collab
module Synthetic = Expfinder_workload.Synthetic
module Twitter = Expfinder_workload.Twitter
module Queries = Expfinder_workload.Queries

(* ------------------------------------------------------------------ *)
(* Timing                                                               *)
(* ------------------------------------------------------------------ *)

(* All wall-clock measurement goes through the telemetry clock so the
   harness and the engine's own profiles agree on what they time. *)
let time_once f = Telemetry.time f

module Report = Telemetry.Report

(* Stats (true median — middle-pair mean for even [reps] — plus IQR and
   the raw samples) of [reps] runs; [prepare] builds a fresh input for
   each run so mutation-heavy benchmarks stay honest. *)
let time_stats_prepared ?(reps = 5) ~prepare f =
  Report.stats_of_samples
    (List.init reps (fun _ ->
         let input = prepare () in
         snd (time_once (fun () -> f input))))

let time_stats ?reps f = time_stats_prepared ?reps ~prepare:(fun () -> ()) f

let time_median ?reps f = (time_stats ?reps f).Report.median

(* ------------------------------------------------------------------ *)
(* Structured report (--json FILE)                                      *)
(* ------------------------------------------------------------------ *)

(* When --json is given, experiments append records here alongside their
   stdout rows; the driver also records one wall-clock sample per
   experiment, so every experiment is paired in a bench-diff even when
   it exposes no finer-grained timings. *)
let report : Report.t option ref = ref None

let record ~id ?(params = []) samples =
  match !report with
  | None -> ()
  | Some r -> Report.add r ~id ~params samples

let record_stats ~id ?params (s : Report.sample_stats) =
  record ~id ?params s.Report.samples

let header title = Printf.printf "\n=== %s ===\n" title

let check label ok =
  Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAILED") label;
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Shared workloads                                                     *)
(* ------------------------------------------------------------------ *)

let flat_graph ~n = Synthetic.flat (Prng.create (1000 + n)) ~n ~avg_degree:4

(* A fixed bounded-simulation query over the synthetic label alphabet:
   an experienced SA exchanging work with an SD (2 hops each way), the
   SD near a QA, and the SA supervising a BA within 3 hops. *)
let bench_query () =
  let spec name label k =
    { Pattern.name; label = Some (Label.of_string label); pred = Predicate.ge_int "exp" k }
  in
  Pattern.make_exn
    ~nodes:[| spec "SA" "SA" 5; spec "SD" "SD" 2; spec "QA" "QA" 0; spec "BA" "BA" 3 |]
    ~edges:
      [
        (0, 1, Pattern.Bounded 2);
        (1, 2, Pattern.Bounded 2);
        (0, 3, Pattern.Bounded 3);
        (1, 0, Pattern.Bounded 2);
      ]
    ~output:0

let bench_query_sim () = Pattern.to_simulation (bench_query ())

(* ------------------------------------------------------------------ *)
(* EXP-F1 .. EXP-F4: Fig. 1 / Examples 1-3 / Fig. 5                     *)
(* ------------------------------------------------------------------ *)

let exp_fig1 ~full:_ =
  header "EXP-F1 (Example 1): match set on the Fig. 1 network";
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let m = Bounded_sim.run q g in
  let expected =
    [ (0, Collab.walt); (0, Collab.bob); (1, Collab.dan); (1, Collab.mat); (1, Collab.pat);
      (2, Collab.jean); (3, Collab.eva) ]
  in
  check "M(Q,G) has exactly the paper's 7 pairs"
    (List.sort compare (Match_relation.pairs m) = List.sort compare expected);
  Printf.printf "  paper: {(SA,Bob),(SA,Walt),(SD,Mat),(SD,Dan),(SD,Pat),(BA,Jean),(ST,Eva)}\n";
  Printf.printf "  ours : %s\n"
    (String.concat ", "
       (List.map
          (fun (u, v) -> Printf.sprintf "(%s,%s)" (Pattern.name q u) (Collab.name_of v))
          (Match_relation.pairs m)))

let exp_example2 ~full:_ =
  header "EXP-F2 (Example 2): social-impact ranks";
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let m = Bounded_sim.run q g in
  let gr = Result_graph.build q g m in
  let rb = Ranking.rank_of gr Collab.bob and rw = Ranking.rank_of gr Collab.walt in
  Printf.printf "  paper: f(SA,Bob) = 9/5,  f(SA,Walt) = 7/3, Bob is top-1\n";
  Printf.printf "  ours : f(SA,Bob) = %d/%d, f(SA,Walt) = %d/%d\n" rb.Ranking.num rb.Ranking.den
    rw.Ranking.num rw.Ranking.den;
  check "f(SA,Bob) = 9/5" (rb.Ranking.num = 9 && rb.Ranking.den = 5);
  check "f(SA,Walt) = 7/3" (rw.Ranking.num = 7 && rw.Ranking.den = 3);
  let top = Ranking.top_k gr ~output_matches:(Match_relation.matches m 0) ~k:1 in
  check "top-1 is Bob" (match top with [ (v, _) ] -> v = Collab.bob | _ -> false)

let exp_example3 ~full:_ =
  header "EXP-F3 (Example 3): incremental update e1";
  let g = Collab.graph () in
  let inc = Incremental.create (Collab.query ()) g in
  let src, dst = Collab.e1 in
  let report = Incremental.apply_updates inc g [ Update.Insert_edge (src, dst) ] in
  Printf.printf "  paper: DeltaM = {(SD,Fred)}, computed without touching the rest of G\n";
  Printf.printf "  ours : added %s, removed %d pairs, affected area %d node(s)\n"
    (String.concat ", "
       (List.map
          (fun (_, v) -> Printf.sprintf "(SD,%s)" (Collab.name_of v))
          report.Incremental.added))
    (List.length report.Incremental.removed)
    report.Incremental.area;
  check "delta = {(SD,Fred)}"
    (report.Incremental.added = [ (1, Collab.fred) ] && report.Incremental.removed = []);
  check "area is Fred's neighbourhood, not the graph" (report.Incremental.area <= 5)

let exp_fig5 ~full:_ =
  header "EXP-F4 (Fig. 4/5): queries Q1-Q3 and their top-1 experts";
  let engine = Engine.create (Collab.graph ()) in
  List.iter
    (fun (name, q) ->
      match Engine.top_k engine q ~k:1 with
      | [ { Engine.name = Some who; rank; _ } ] ->
        Printf.printf "  %s: top-1 = %s (rank %s)\n" name who
          (Format.asprintf "%a" Ranking.pp_rank rank)
      | _ -> check (name ^ " has a top-1") false)
    [ ("Q1", Collab.q1 ()); ("Q2", Collab.q2 ()); ("Q3", Collab.q3 ()) ];
  check "all three queries answered" true

(* ------------------------------------------------------------------ *)
(* EXP-B1: semantics comparison against the §I baselines                *)
(* ------------------------------------------------------------------ *)

let exp_semantics ~full:_ =
  header "EXP-B1 (§I): subgraph isomorphism vs simulation vs bounded simulation";
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  Printf.printf "  on the Fig. 1 network with query Q:\n";
  Printf.printf "  %-22s %-10s %s\n" "semantics" "matches" "note";
  let iso = Subiso.exists q g in
  Printf.printf "  %-22s %-10s %s\n" "subgraph isomorphism"
    (if iso then "yes" else "none")
    "needs a direct SA->BA edge and a bijection";
  let sim = Simulation.run (Pattern.to_simulation q) g in
  Printf.printf "  %-22s %-10s %s\n" "graph simulation"
    (if Match_relation.is_total sim then "yes" else "none")
    "edge-to-edge only; the SA->BA path is invisible";
  let bsim = Bounded_sim.run q g in
  Printf.printf "  %-22s %-10d %s\n" "bounded simulation" (Match_relation.total bsim)
    "maps SD to Mat, Dan and Pat; SA->BA over a path";
  check "only bounded simulation finds the experts"
    ((not iso)
    && (not (Match_relation.is_total sim))
    && Match_relation.is_total bsim);
  (* Runtime contrast on a permissive query where isomorphism does match:
     enumeration is exponential in the embedding count, so it is capped. *)
  let syn = Snapshot.of_digraph (flat_graph ~n:2_000) in
  let spec name label = { Pattern.name; label = Some (Label.of_string label); pred = Predicate.always } in
  let permissive =
    Pattern.make_exn
      ~nodes:[| spec "SA" "SA"; spec "SD" "SD" |]
      ~edges:[ (0, 1, Pattern.Bounded 1) ]
      ~output:0
  in
  let pairs, t_iso =
    time_once (fun () -> Subiso.matched_pairs ~max_embeddings:10_000 permissive syn)
  in
  let kernel, t_bsim = time_once (fun () -> Bounded_sim.run permissive syn) in
  Printf.printf "  synthetic (|V|=2000), 2-node query: iso %d pairs in %.1f ms (capped), bsim %d pairs in %.1f ms\n"
    (List.length pairs) t_iso (Match_relation.total kernel) t_bsim

(* ------------------------------------------------------------------ *)
(* EXP-B2: batched evaluation                                           *)
(* ------------------------------------------------------------------ *)

let exp_batch ~full =
  header "EXP-B2: batched evaluation vs a sequential loop (one pinned snapshot)";
  let n = if full then 20_000 else 5_000 in
  let g = Twitter.generate (Prng.create 61) ~n in
  let count = 12 in
  let queries = Queries.workload (Prng.create 67) ~count ~simulation:false g in
  (* Exactness and the scan saving first, with telemetry on so the
     gated [candidates.scans] counter records. *)
  let was_enabled = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let scans () =
    match
      List.assoc_opt "candidates.scans" (Telemetry.Metrics.counters_snapshot ())
    with
    | Some v -> v
    | None -> 0
  in
  let e_seq = Engine.create g in
  let s0 = scans () in
  let seq_answers = List.map (fun q -> Engine.evaluate e_seq q) queries in
  let seq_scans = scans () - s0 in
  let e_batch = Engine.create g in
  let s1 = scans () in
  let batch_answers = Engine.evaluate_batch e_batch queries in
  let batch_scans = scans () - s1 in
  Telemetry.set_enabled was_enabled;
  check "batch answers equal per-query evaluation"
    (List.for_all2
       (fun (a : Engine.answer) (b : Engine.answer) ->
         Verify.semantically_equal a.Engine.relation b.Engine.relation)
       seq_answers batch_answers);
  check "batch performs fewer candidate scans" (batch_scans < seq_scans);
  Printf.printf "  candidate scans: sequential %d, batched %d\n" seq_scans batch_scans;
  let params =
    [ ("n", Telemetry.Json.Int n); ("queries", Telemetry.Json.Int count) ]
  in
  let s_seq =
    time_stats (fun () ->
        let e = Engine.create g in
        List.iter (fun q -> ignore (Engine.evaluate e q : Engine.answer)) queries)
  in
  let s_batch =
    time_stats (fun () ->
        let e = Engine.create g in
        ignore (Engine.evaluate_batch e queries : Engine.answer list))
  in
  record_stats ~id:"EXP-B2.sequential" ~params s_seq;
  record_stats ~id:"EXP-B2.batch" ~params s_batch;
  Printf.printf "  %d queries, |V| = %d: sequential %.1f ms, batched %.1f ms (%.1fx)\n" count n
    s_seq.Report.median s_batch.Report.median
    (s_seq.Report.median /. max s_batch.Report.median 0.001)

(* ------------------------------------------------------------------ *)
(* EXP-Q1: query evaluation scaling                                     *)
(* ------------------------------------------------------------------ *)

let exp_query_scaling ~full =
  header "EXP-Q1: evaluation time vs |G| (simulation vs bounded simulation)";
  Printf.printf "  %8s %9s %12s %12s %9s %9s\n" "|V|" "|E|" "t_sim ms" "t_bsim ms" "|M_sim|"
    "|M_bsim|";
  let sizes =
    if full then [ 2_000; 4_000; 8_000; 16_000; 32_000; 64_000 ]
    else [ 2_000; 4_000; 8_000; 16_000 ]
  in
  List.iter
    (fun n ->
      let g = Snapshot.of_digraph (flat_graph ~n) in
      let qs = bench_query_sim () and qb = bench_query () in
      let s_sim = time_stats (fun () -> ignore (Simulation.run qs g)) in
      let s_bsim = time_stats (fun () -> ignore (Bounded_sim.run qb g)) in
      let params = [ ("n", Telemetry.Json.Int n) ] in
      record_stats ~id:(Printf.sprintf "EXP-Q1.sim.n=%d" n) ~params s_sim;
      record_stats ~id:(Printf.sprintf "EXP-Q1.bsim.n=%d" n) ~params s_bsim;
      let m_sim = Match_relation.total (Simulation.run qs g) in
      let m_bsim = Match_relation.total (Bounded_sim.run qb g) in
      Printf.printf "  %8d %9d %12.2f %12.2f %9d %9d\n" n (Snapshot.edge_count g)
        s_sim.Report.median s_bsim.Report.median m_sim m_bsim)
    sizes;
  print_endline "  shape check: both polynomial; bounded simulation costlier than simulation"

(* ------------------------------------------------------------------ *)
(* EXP-Q2: top-K selection                                              *)
(* ------------------------------------------------------------------ *)

let exp_topk_scaling ~full =
  header "EXP-Q2: top-K selection on the Twitter-like graph";
  let n = if full then 30_000 else 10_000 in
  let g = Twitter.generate (Prng.create 42) ~n in
  let csr = Snapshot.of_digraph g in
  let q =
    Pattern.make_exn
      ~nodes:
        [|
          { Pattern.name = "DB"; label = Some (Label.of_string "DB"); pred = Predicate.ge_int "exp" 6 };
          { Pattern.name = "ML"; label = Some (Label.of_string "ML"); pred = Predicate.always };
          { Pattern.name = "Sec"; label = Some (Label.of_string "Sec"); pred = Predicate.ge_int "exp" 4 };
        |]
      ~edges:[ (1, 0, Pattern.Bounded 2); (0, 2, Pattern.Bounded 3) ]
      ~output:0
  in
  let m, t_eval = time_once (fun () -> Bounded_sim.run q csr) in
  let gr, t_build = time_once (fun () -> Result_graph.build q csr m) in
  let matches = Match_relation.matches m (Pattern.output q) in
  Printf.printf "  |V| = %d, output matches = %d, eval %.1f ms, result graph %.1f ms\n" n
    (List.length matches) t_eval t_build;
  Printf.printf "  %6s %12s %20s\n" "K" "t_topk ms" "best rank";
  List.iter
    (fun k ->
      let rank () = Ranking.top_k gr ~output_matches:matches ~k in
      (* The first call warms up and gives the printed answer. *)
      let top = rank () in
      let st = time_stats (fun () -> ignore (rank ())) in
      record_stats
        ~id:(Printf.sprintf "EXP-Q2.topk.k=%d" k)
        ~params:[ ("n", Telemetry.Json.Int n); ("k", Telemetry.Json.Int k) ]
        st;
      let best =
        match top with (_, r) :: _ -> Format.asprintf "%a" Ranking.pp_rank r | [] -> "-"
      in
      Printf.printf "  %6d %12.2f %20s\n" k st.Report.median best)
    [ 1; 5; 10; 25; 50 ];
  print_endline
    "  note: once K matches are ranked, a match stops as soon as its average settled \
     distance passes the K-th best rank, so smaller K prunes earlier"

(* ------------------------------------------------------------------ *)
(* EXP-I1: incremental vs batch, unit updates                           *)
(* ------------------------------------------------------------------ *)

let unit_update_times pattern n =
  let g = flat_graph ~n in
  let rng = Prng.create (77 + n) in
  let inc = Incremental.create pattern g in
  (* Alternate insert/delete of fresh random edges through the tracker;
     median over the individual maintenance calls. *)
  let samples = ref [] in
  for _ = 1 to 5 do
    match Update.random_insertions rng g 1 with
    | [ Update.Insert_edge (a, b) ] ->
      let _, t_ins =
        time_once (fun () -> Incremental.apply_updates inc g [ Update.Insert_edge (a, b) ])
      in
      let _, t_del =
        time_once (fun () -> Incremental.apply_updates inc g [ Update.Delete_edge (a, b) ])
      in
      samples := t_ins :: t_del :: !samples
    | _ -> ()
  done;
  let t_inc = (Report.stats_of_samples !samples).Report.median in
  let t_batch =
    time_median (fun () ->
        let csr = Snapshot.of_digraph g in
        if Pattern.is_simulation_pattern pattern then ignore (Simulation.run pattern csr)
        else ignore (Bounded_sim.run pattern csr))
  in
  (t_inc, t_batch)

let exp_incremental_unit ~full =
  header "EXP-I1: incremental vs batch, unit updates (single edge)";
  let sizes =
    if full then [ 2_000; 4_000; 8_000; 16_000; 32_000 ] else [ 2_000; 4_000; 8_000; 16_000 ]
  in
  Printf.printf "  %-6s %8s %12s %12s %9s\n" "query" "|V|" "t_inc ms" "t_batch ms" "speedup";
  List.iter
    (fun (name, pattern) ->
      List.iter
        (fun n ->
          let t_inc, t_batch = unit_update_times pattern n in
          let params =
            [ ("n", Telemetry.Json.Int n); ("query", Telemetry.Json.Str name) ]
          in
          record ~id:(Printf.sprintf "EXP-I1.%s.inc.n=%d" name n) ~params [ t_inc ];
          record ~id:(Printf.sprintf "EXP-I1.%s.batch.n=%d" name n) ~params [ t_batch ];
          Printf.printf "  %-6s %8d %12.3f %12.3f %8.1fx\n" name n t_inc t_batch
            (t_batch /. max t_inc 0.001))
        sizes)
    [ ("sim", bench_query_sim ()); ("bsim", bench_query ()) ];
  print_endline "  shape check: speedup grows with |G| (unit-update cost is local)"

(* ------------------------------------------------------------------ *)
(* EXP-I2: incremental vs batch, batch updates (the 30% / 10% claims)   *)
(* ------------------------------------------------------------------ *)

let batch_sweep ~tag pattern percentages base =
  let m = Digraph.edge_count base in
  Printf.printf "  %7s %9s %12s %12s %10s\n" "|dG|/|E|" "|dG|" "t_inc ms" "t_batch ms" "winner";
  let crossover = ref None in
  List.iter
    (fun pct ->
      let count = max 1 (m * pct / 100) in
      let s_inc =
        time_stats_prepared ~reps:5
          ~prepare:(fun () ->
            let g = Digraph.copy base in
            let rng = Prng.create (pct * 131) in
            let updates = Update.random_mixed rng g count in
            let inc = Incremental.create pattern g in
            (g, inc, updates))
          (fun (g, inc, updates) -> ignore (Incremental.apply_updates inc g updates))
      in
      let s_batch =
        time_stats_prepared ~reps:5
          ~prepare:(fun () ->
            let g = Digraph.copy base in
            let rng = Prng.create (pct * 131) in
            let updates = Update.random_mixed rng g count in
            (g, updates))
          (fun (g, updates) ->
            ignore (Update.apply_batch g updates);
            let csr = Snapshot.of_digraph g in
            if Pattern.is_simulation_pattern pattern then ignore (Simulation.run pattern csr)
            else ignore (Bounded_sim.run pattern csr))
      in
      let params =
        [ ("pct", Telemetry.Json.Int pct); ("updates", Telemetry.Json.Int count) ]
      in
      record_stats ~id:(Printf.sprintf "EXP-I2.%s.inc.pct=%d" tag pct) ~params s_inc;
      record_stats ~id:(Printf.sprintf "EXP-I2.%s.batch.pct=%d" tag pct) ~params s_batch;
      let t_inc = s_inc.Report.median and t_batch = s_batch.Report.median in
      let winner = if t_inc <= t_batch then "inc" else "batch" in
      if t_inc > t_batch && !crossover = None then crossover := Some pct;
      Printf.printf "  %6d%% %9d %12.2f %12.2f %10s\n" pct count t_inc t_batch winner)
    percentages;
  match !crossover with
  | Some pct -> Printf.printf "  crossover: batch wins from ~%d%% of |E| changed\n" pct
  | None -> Printf.printf "  crossover: not reached in this sweep (incremental wins throughout)\n"

(* A sparse collaboration graph and a bounds<=2 pattern: the regime the
   SIGMOD'11 experiments report (social graphs are sparse; expert queries
   use small bounds). *)
let sparse_batch_query () =
  let spec name label k =
    { Pattern.name; label = Some (Label.of_string label); pred = Predicate.ge_int "exp" k }
  in
  Pattern.make_exn
    ~nodes:[| spec "SA" "SA" 5; spec "SD" "SD" 2; spec "QA" "QA" 0; spec "BA" "BA" 3 |]
    ~edges:
      [
        (0, 1, Pattern.Bounded 2);
        (1, 2, Pattern.Bounded 2);
        (0, 3, Pattern.Bounded 2);
        (1, 0, Pattern.Bounded 2);
      ]
    ~output:0

let exp_incremental_batch ~full =
  header "EXP-I2: incremental vs batch, batch updates";
  let n = if full then 16_000 else 8_000 in
  let base = Synthetic.flat (Prng.create 701) ~n ~avg_degree:2 in
  Printf.printf "  graph: %d nodes, %d edges (sparse collaboration network)\n"
    (Digraph.node_count base) (Digraph.edge_count base);
  Printf.printf "  -- simulation (paper: incremental wins up to ~30%% changes) --\n";
  batch_sweep ~tag:"sim" (Pattern.to_simulation (sparse_batch_query ())) [ 2; 5; 10; 20; 30; 50 ]
    base;
  Printf.printf "  -- bounded simulation (paper: incremental wins up to ~10%% changes) --\n";
  batch_sweep ~tag:"bsim" (sparse_batch_query ()) [ 1; 2; 5; 10; 20 ] base

(* ------------------------------------------------------------------ *)
(* EXP-C1: compression ratio (the 57% claim)                            *)
(* ------------------------------------------------------------------ *)

let compression_datasets ~full =
  let rng = Prng.create 5 in
  [
    ("org-2k", Synthetic.org rng ~teams:200 ~team_size:9);
    ("org-8k", Synthetic.org rng ~teams:800 ~team_size:9);
    ("twitter-5k", Twitter.generate rng ~n:5_000);
    ("twitter-20k", Twitter.generate rng ~n:20_000);
  ]
  @ if full then [ ("org-30k", Synthetic.org rng ~teams:3_000 ~team_size:9) ] else []

let exp_compression_ratio ~full =
  header "EXP-C1: compression ratio (paper: graphs reduced by 57% on average)";
  Printf.printf "  %-12s %9s %9s %9s %9s %8s %8s %10s\n" "dataset" "|V|" "|E|" "|Vc|" "|Ec|"
    "nodes%" "edges%" "t_comp ms";
  let ratios = ref [] in
  let run ?(count = true) (name, g) =
    let csr = Snapshot.of_digraph g in
    let compressed, t =
      time_once (fun () -> Compress.compress ~atoms:Queries.atom_universe csr)
    in
    let gc = Compress.compressed compressed in
    let nr = Compress.node_ratio compressed and er = Compress.edge_ratio compressed in
    if count then ratios := nr :: !ratios;
    record
      ~id:(Printf.sprintf "EXP-C1.%s" name)
      ~params:[ ("nodes", Telemetry.Json.Int (Snapshot.node_count csr)) ]
      [ t ];
    Printf.printf "  %-12s %9d %9d %9d %9d %7.1f%% %7.1f%% %10.1f\n" name (Snapshot.node_count csr)
      (Snapshot.edge_count csr) (Snapshot.node_count gc) (Snapshot.edge_count gc) (100.0 *. nr)
      (100.0 *. er) t
  in
  List.iter run (compression_datasets ~full);
  let avg = List.fold_left ( +. ) 0.0 !ratios /. float_of_int (List.length !ratios) in
  Printf.printf "  average node reduction: %.1f%% (paper: 57%%)\n" (100.0 *. avg);
  (* Uniform-random graphs carry almost no behavioural redundancy; shown
     for contrast, excluded from the average (the paper's datasets are
     social graphs). *)
  run ~count:false ("flat-8k", flat_graph ~n:8_000)

(* ------------------------------------------------------------------ *)
(* EXP-C2: querying compressed graphs (the 70% claim)                   *)
(* ------------------------------------------------------------------ *)

let exp_compressed_query ~full:_ =
  header "EXP-C2: query time, original vs compressed (paper: ~70% faster)";
  Printf.printf "  %-12s %10s %12s %12s %10s\n" "dataset" "queries" "t(G) ms" "t(Gc) ms" "saved";
  let rng = Prng.create 17 in
  let datasets =
    [
      ("org-2k", Synthetic.org rng ~teams:200 ~team_size:9);
      ("org-8k", Synthetic.org rng ~teams:800 ~team_size:9);
      ("org-20k", Synthetic.org rng ~teams:2_000 ~team_size:9);
    ]
  in
  List.iter
    (fun (name, g) ->
      let csr = Snapshot.of_digraph g in
      let compressed = Compress.compress ~atoms:Queries.atom_universe csr in
      let queries = Queries.workload rng ~count:10 ~simulation:false g in
      (* Exactness first. *)
      List.iter
        (fun q ->
          assert (
            Match_relation.equal (Bounded_sim.run q csr) (Compress.evaluate compressed q)))
        queries;
      let s_direct =
        time_stats (fun () -> List.iter (fun q -> ignore (Bounded_sim.run q csr)) queries)
      in
      let s_gc =
        time_stats (fun () ->
            List.iter (fun q -> ignore (Compress.evaluate compressed q)) queries)
      in
      record_stats ~id:(Printf.sprintf "EXP-C2.%s.direct" name) s_direct;
      record_stats ~id:(Printf.sprintf "EXP-C2.%s.compressed" name) s_gc;
      let t_direct = s_direct.Report.median and t_gc = s_gc.Report.median in
      Printf.printf "  %-12s %10d %12.1f %12.1f %9.1f%%\n" name (List.length queries) t_direct
        t_gc
        (100.0 *. (1.0 -. (t_gc /. t_direct))))
    datasets;
  print_endline "  (answers on Gc verified identical to direct evaluation before timing)"

(* ------------------------------------------------------------------ *)
(* EXP-C3: maintaining compressed graphs                                *)
(* ------------------------------------------------------------------ *)

let exp_compression_maintain ~full =
  header "EXP-C3: compressed-graph maintenance vs recompression";
  let teams = if full then 2_000 else 800 in
  let base = Synthetic.org (Prng.create 23) ~teams ~team_size:9 in
  Printf.printf "  base: %d nodes, %d edges\n" (Digraph.node_count base) (Digraph.edge_count base);
  Printf.printf "  %8s %12s %14s %10s %10s %8s\n" "|dG|" "t_maint ms" "t_rebuild ms" "blocks"
    "fresh" "drift";
  List.iter
    (fun count ->
      let g = Digraph.copy base in
      let inc = Inc_compress.create ~atoms:Queries.atom_universe g in
      let rng = Prng.create (count * 7) in
      let updates = Update.random_mixed rng g count in
      let report, t_maint = time_once (fun () -> Inc_compress.apply_updates inc g updates) in
      let fresh = Inc_compress.fresh_block_count inc in
      let _, t_rebuild = time_once (fun () -> Inc_compress.rebuild inc g) in
      Printf.printf "  %8d %12.1f %14.1f %10d %10d %7.1f%%\n" count t_maint t_rebuild
        report.Inc_compress.blocks_after fresh
        (100.0
        *. float_of_int (report.Inc_compress.blocks_after - fresh)
        /. float_of_int (max fresh 1)))
    [ 1; 10; 50; 200; 1_000 ];
  print_endline "  drift = extra blocks kept by local maintenance vs the coarsest partition"

(* ------------------------------------------------------------------ *)
(* EXP-K1: result caching                                               *)
(* ------------------------------------------------------------------ *)

let exp_cache ~full:_ =
  header "EXP-K1: cached query results";
  let g = Twitter.generate (Prng.create 31) ~n:5_000 in
  let engine = Engine.create g in
  let rng = Prng.create 57 in
  let queries = Queries.workload rng ~count:10 ~simulation:false g in
  let (), t_cold =
    time_once (fun () -> List.iter (fun q -> ignore (Engine.evaluate engine q)) queries)
  in
  let (), t_warm =
    time_once (fun () -> List.iter (fun q -> ignore (Engine.evaluate engine q)) queries)
  in
  let hits, misses = Engine.cache_stats engine in
  record ~id:"EXP-K1.cold" [ t_cold ];
  record ~id:"EXP-K1.warm" [ t_warm ];
  Printf.printf "  10 queries cold: %8.1f ms\n" t_cold;
  Printf.printf "  10 queries warm: %8.2f ms (cache hits)\n" t_warm;
  Printf.printf "  cache stats: %d hits, %d misses\n" hits misses;
  check "all warm answers were hits" (hits = 10)

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let exp_ablation_bsim_strategy ~full =
  header "EXP-A1 (ablation): bounded-simulation refinement strategy";
  Printf.printf "  %8s %14s %14s\n" "|V|" "counters ms" "naive ms";
  let sizes = if full then [ 2_000; 8_000; 32_000 ] else [ 2_000; 8_000 ] in
  List.iter
    (fun n ->
      let g = Snapshot.of_digraph (flat_graph ~n) in
      let q = bench_query () in
      let s_counters =
        time_stats (fun () -> ignore (Bounded_sim.run ~strategy:Bounded_sim.Counters q g))
      in
      let s_naive =
        time_stats (fun () -> ignore (Bounded_sim.run ~strategy:Bounded_sim.Naive q g))
      in
      let params = [ ("n", Telemetry.Json.Int n) ] in
      record_stats ~id:(Printf.sprintf "EXP-A1.counters.n=%d" n) ~params s_counters;
      record_stats ~id:(Printf.sprintf "EXP-A1.naive.n=%d" n) ~params s_naive;
      Printf.printf "  %8d %14.2f %14.2f\n" n s_counters.Report.median s_naive.Report.median)
    sizes

let exp_ablation_equivalence ~full:_ =
  header "EXP-A2 (ablation): bisimulation vs simulation-equivalence merging";
  Printf.printf "  %-10s %7s %12s %12s %14s %14s\n" "dataset" "|V|" "bisim |Vc|" "simeq |Vc|"
    "t_bisim ms" "t_simeq ms";
  let rng = Prng.create 3 in
  let datasets =
    [
      ("org", Synthetic.org rng ~teams:60 ~team_size:7);
      ("flat", Synthetic.flat rng ~n:600 ~avg_degree:3);
      ("twitter", Twitter.generate rng ~n:600);
    ]
  in
  List.iter
    (fun (name, g) ->
      let snap = Snapshot.of_digraph g in
      let csr = Snapshot.csr snap in
      let key v = Label.to_int (Snapshot.label snap v) in
      let bisim, t_b = time_once (fun () -> Bisimulation.compute csr ~key) in
      let simeq, t_s = time_once (fun () -> Sim_equivalence.compute csr ~key) in
      Printf.printf "  %-10s %7d %12d %12d %14.1f %14.1f\n" name (Snapshot.node_count snap)
        (Bisimulation.block_count bisim) (Bisimulation.block_count simeq) t_b t_s)
    datasets;
  print_endline "  simeq merges at least as much but only preserves plain-simulation queries"

let exp_ablation_area ~full =
  header "EXP-A3 (ablation): incremental affected-area strategy";
  let n = if full then 16_000 else 8_000 in
  let base = flat_graph ~n in
  Printf.printf "  base: %d nodes, %d edges; 8 unit updates per strategy\n"
    (Digraph.node_count base) (Digraph.edge_count base);
  Printf.printf "  %-14s %12s %12s %12s %12s\n" "strategy" "min area" "median area" "max area"
    "median ms";
  List.iter
    (fun (name, strategy) ->
      let areas = ref [] and times = ref [] in
      for seed = 1 to 8 do
        let g = Digraph.copy base in
        let inc = Incremental.create ~area_strategy:strategy (bench_query ()) g in
        let updates = Update.random_mixed (Prng.create seed) g 1 in
        let report, t = time_once (fun () -> Incremental.apply_updates inc g updates) in
        areas := report.Incremental.area :: !areas;
        times := t :: !times
      done;
      let areas = List.sort compare !areas and times = List.sort compare !times in
      Printf.printf "  %-14s %12d %12d %12d %12.2f\n" name (List.nth areas 0)
        (List.nth areas 4) (List.nth areas 7) (List.nth times 4))
    [ ("ball-closure", Incremental.Ball_closure); ("ancestors", Incremental.Ancestors) ];
  print_endline
    "  ball-closure stays tiny unless the update can enable a group of new matches;\n\
    \  a sync whose work passes the price of one dense run stops and recomputes\n\
    \  (area = |V|).  ancestors always floods the reverse-reachable set and refines all of it"

let exp_ablation_ball_index ~full =
  header "EXP-A4 (ablation): precomputed distance index for query workloads";
  let n = if full then 32_000 else 8_000 in
  let g = Snapshot.of_digraph (flat_graph ~n) in
  let rng = Prng.create 43 in
  let queries =
    Queries.workload rng ~count:10 ~simulation:false (Snapshot.to_digraph g)
  in
  (* The workload's graph copy shares structure; evaluate on [g]. *)
  let idx, t_build = time_once (fun () -> Ball_index.build g ~radius:3) in
  List.iter
    (fun q -> assert (Match_relation.equal (Ball_index.evaluate idx q g) (Bounded_sim.run q g)))
    queries;
  let t_direct =
    time_median (fun () ->
        List.iter (fun q -> ignore (Bounded_sim.run q g : Match_relation.t)) queries)
  in
  let t_indexed =
    time_median (fun () ->
        List.iter (fun q -> ignore (Ball_index.evaluate idx q g : Match_relation.t)) queries)
  in
  record ~id:"EXP-A4.direct" [ t_direct ];
  record ~id:"EXP-A4.indexed" [ t_indexed ];
  Printf.printf "  |V| = %d; index: %d entries, built in %.1f ms\n" n
    (Ball_index.memory_entries idx) t_build;
  Printf.printf "  10-query workload: direct %.1f ms, indexed %.1f ms (%.1fx)\n" t_direct
    t_indexed
    (t_direct /. max t_indexed 0.001);
  Printf.printf "  break-even after ~%.0f workloads of this size\n"
    (t_build /. max (t_direct -. t_indexed) 0.001)

let exp_ablation_minimise ~full:_ =
  header "EXP-A5 (ablation): pattern-query minimisation";
  let g = Snapshot.of_digraph (flat_graph ~n:8_000) in
  (* A team query with redundant duplicate members, as a user might
     draw it: one SA leading three interchangeable SDs. *)
  let spec name label k =
    { Pattern.name; label = Some (Label.of_string label); pred = Predicate.ge_int "exp" k }
  in
  let redundant =
    Pattern.make_exn
      ~nodes:[| spec "SA" "SA" 5; spec "SD1" "SD" 2; spec "SD2" "SD" 2; spec "SD3" "SD" 2; spec "QA" "QA" 0 |]
      ~edges:
        [
          (0, 1, Pattern.Bounded 2);
          (0, 2, Pattern.Bounded 2);
          (0, 3, Pattern.Bounded 3);
          (1, 4, Pattern.Bounded 2);
          (2, 4, Pattern.Bounded 2);
          (3, 4, Pattern.Bounded 2);
        ]
      ~output:0
  in
  let minimised, renaming = Pattern_opt.minimise redundant in
  let m_full = Bounded_sim.run redundant g in
  let m_min = Bounded_sim.run minimised g in
  assert (
    Match_relation.matches m_full 0 = Match_relation.matches m_min renaming.(0));
  let t_full = time_median (fun () -> ignore (Bounded_sim.run redundant g)) in
  let t_min = time_median (fun () -> ignore (Bounded_sim.run minimised g)) in
  record ~id:"EXP-A5.full" [ t_full ];
  record ~id:"EXP-A5.minimised" [ t_min ];
  Printf.printf "  query: %d nodes/%d edges -> minimised %d nodes/%d edges\n"
    (Pattern.size redundant) (Pattern.edge_count redundant) (Pattern.size minimised)
    (Pattern.edge_count minimised);
  Printf.printf "  evaluation: %.2f ms -> %.2f ms (%.1fx), same output matches\n" t_full t_min
    (t_full /. max t_min 0.001)

(* ------------------------------------------------------------------ *)
(* EXP-T1: long-horizon telemetry cost                                  *)
(* ------------------------------------------------------------------ *)

(* The serving path pays for telemetry twice: every request records into
   its sliding window (already covered by the window benchmarks), and a
   1 Hz sampler tick folds windows + process gauges + counters into the
   retention rings and re-evaluates the SLO burn rates.  This experiment
   prices both halves so the "<= 5% serving overhead" budget in
   DESIGN.md stays an empirical number, not a hope. *)
let exp_telemetry_cost ~full =
  header "EXP-T1: telemetry retention + SLO evaluation cost";
  let module T = Telemetry.Timeseries in
  let module S = Telemetry.Slo in
  (* Half 1: raw ring writes, over a serving-sized series set and an
     hour of 1 Hz ticks (every record touches all three rings). *)
  let series =
    List.concat_map
      (fun op ->
        [ Printf.sprintf "win.%s.qps" op; Printf.sprintf "win.%s.error_rate" op;
          Printf.sprintf "win.%s.p99_ms" op; Printf.sprintf "req.%s" op;
          Printf.sprintf "err.%s" op ])
      [ "query"; "batch"; "update" ]
    @ [ "process.rss_bytes"; "process.heap_words"; "process.minor_words";
        "process.major_words"; "process.gc_pause_us_max" ]
  in
  let ticks = if full then 3600 else 900 in
  let ts = T.create () in
  let (), t_fill =
    time_once (fun () ->
        for i = 0 to ticks - 1 do
          let now = 1.0e9 +. float_of_int i in
          List.iteri
            (fun j name ->
              T.record ~now ts (if j mod 2 = 0 then T.Level else T.Rate) name
                (float_of_int ((i * 7 mod 1000) + j)))
            series
        done)
  in
  let records = ticks * List.length series in
  let per_record_us = t_fill *. 1000.0 /. float_of_int records in
  record ~id:"EXP-T1.record"
    ~params:[ ("records", Telemetry.Json.Int records) ]
    [ per_record_us ];
  Printf.printf "  %d ring writes (%d series x %d ticks): %.1f ms total, %.3f us/write\n"
    records (List.length series) ticks t_fill per_record_us;
  (* Half 2: one sampler tick against live windows and registry. *)
  let was_enabled = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let w_query = Telemetry.Window.get "query" in
  for i = 0 to 999 do
    Telemetry.Window.observe w_query ~error:(i mod 97 = 0) (0.5 +. float_of_int (i mod 20))
  done;
  let live = T.create () in
  let s_tick =
    time_stats ~reps:20 (fun () -> ignore (T.sample ~persist:false live : (string * float) list))
  in
  record_stats ~id:"EXP-T1.sample" s_tick;
  Printf.printf "  sampler tick (windows + process + registry): %.3f ms median\n"
    s_tick.Report.median;
  (* Half 3: burn-rate evaluation of the default objective set over the
     populated rings. *)
  S.set_objectives
    [
      S.availability ~op:"query" ~target:0.999 ();
      S.availability ~op:"batch" ~target:0.999 ();
      S.availability ~op:"update" ~target:0.999 ();
      S.latency_p99 ~op:"query" ~threshold_ms:50.0 ~target:0.99 ();
    ];
  let now = 1.0e9 +. float_of_int ticks in
  let s_slo =
    time_stats ~reps:20 (fun () -> ignore (S.evaluate ~now ~ts () : S.alert list))
  in
  S.set_objectives [];
  Telemetry.set_enabled was_enabled;
  record_stats ~id:"EXP-T1.slo" s_slo;
  Printf.printf "  SLO evaluation (4 objectives, fast+slow windows): %.3f ms median\n"
    s_slo.Report.median;
  (* A sampler tick runs once a second; even tick + evaluation together
     at 50 ms would be 5% of wall-clock, far above anything seen.  The
     bound is deliberately loose — it guards against accidental
     quadratic blowups, not noise. *)
  check "ring write stays sub-10us" (per_record_us < 10.0);
  check "sampler tick + SLO evaluation stay under 50 ms/s (5% budget)"
    (s_tick.Report.median +. s_slo.Report.median < 50.0)

(* ------------------------------------------------------------------ *)
(* EXP-T2: continuous profiler + domain telemetry overhead              *)
(* ------------------------------------------------------------------ *)

(* The multicore observability layer adds three always-on costs to the
   serving path: folding each completed span tree into the collapsed-
   stack profile, the channel depth gauge + (flag-gated) wait
   histograms on every pool push/pop, and per-worker busy/idle
   accounting.  This experiment prices the fold and the channel
   instrumentation with telemetry off vs on, so the on/off pair can sit
   in BENCH_baseline.json and the Tukey gate flags any creep. *)
let exp_profile_cost ~full =
  header "EXP-T2: continuous profiler + channel instrumentation cost";
  let module P = Telemetry.Profile in
  let was_enabled = Telemetry.enabled () in
  (* Half 1: folding a serving-shaped span tree (root + three stages,
     each with a few children — comparable to a query's plan trace). *)
  Telemetry.set_enabled true;
  let (), root =
    Telemetry.Trace.collect
      (Telemetry.Trace.make ~sampled:true ())
      "bench.query"
      (fun () ->
        List.iter
          (fun stage ->
            Telemetry.with_span stage (fun () ->
                for _ = 1 to 3 do
                  Telemetry.with_span (stage ^ ".step") ignore
                done))
          [ "candidates"; "refine"; "rank" ])
  in
  let root = Option.get root in
  let folds = if full then 20_000 else 5_000 in
  let (), t_fold = time_once (fun () -> for _ = 1 to folds do P.record root done) in
  let per_fold_us = t_fold *. 1000.0 /. float_of_int folds in
  record ~id:"EXP-T2.fold"
    ~params:[ ("folds", Telemetry.Json.Int folds) ]
    [ per_fold_us ];
  Printf.printf "  span-tree fold (13 frames): %.3f us/fold over %d folds (%d stacks)\n"
    per_fold_us folds (List.length (P.rows ()));
  (* Half 2: instrumented channel traffic, telemetry off vs on.  The
     depth gauge always fires (it is the /domains.json backbone); the
     wait histograms only with the flag, which is what the on/off pair
     prices. *)
  let ops = if full then 200_000 else 50_000 in
  let chan_cost () =
    let c = Parallel.Chan.create ~name:"bench" ~capacity:(ops + 1) () in
    let (), t =
      time_once (fun () ->
          for i = 1 to ops do
            Parallel.Chan.push c i
          done;
          for _ = 1 to ops do
            ignore (Parallel.Chan.pop c : int option)
          done)
    in
    t *. 1000.0 /. float_of_int (2 * ops)
  in
  Telemetry.set_enabled false;
  let off_us = chan_cost () in
  Telemetry.set_enabled true;
  let on_us = chan_cost () in
  Telemetry.set_enabled was_enabled;
  record ~id:"EXP-T2.chan.off" ~params:[ ("ops", Telemetry.Json.Int (2 * ops)) ] [ off_us ];
  record ~id:"EXP-T2.chan.on" ~params:[ ("ops", Telemetry.Json.Int (2 * ops)) ] [ on_us ];
  Printf.printf
    "  instrumented chan push+pop: %.3f us/op off, %.3f us/op on (%.2fx)\n" off_us on_us
    (on_us /. Float.max off_us 0.001);
  (* Loose absolute guards: the fold must stay far below a query's
     own cost, and channel traffic must stay micro-scale either way —
     these catch accidental O(stacks) scans, not scheduler noise. *)
  check "span-tree fold stays sub-100us" (per_fold_us < 100.0);
  check "instrumented chan op stays sub-10us (flag on or off)"
    (off_us < 10.0 && on_us < 10.0)

(* ------------------------------------------------------------------ *)
(* EXP-P1: multicore execution model                                  *)
(* ------------------------------------------------------------------ *)

(* EXP-P1: served QPS as the server domain pool grows.  An in-process
   server is spawned per pool size on its own Unix socket; a fixed set
   of client worker domains each holds one connection and sends the
   same query round, so the server-side pool is the only variable.
   The speedup column is honest hardware truth: on a single-core host
   every extra domain only adds scheduling overhead, so ratios near
   (or below) 1.0x there are the expected result, not a regression. *)
let exp_parallel_serve ~full =
  header "EXP-P1: served QPS vs server domain-pool size (concurrent soak)";
  let n = if full then 10_000 else 3_000 in
  let g = Twitter.generate (Prng.create 71) ~n in
  let req_texts =
    Queries.workload (Prng.create 73) ~count:4 ~simulation:false g
    |> List.map Pattern_io.to_string |> Array.of_list
  in
  let workers = 4 in
  let reqs = if full then 100 else 25 in
  let pool_sizes = if full then [ 1; 2; 4 ] else [ 1; 2 ] in
  let soak ep =
    let t0 = Telemetry.now_us () in
    let tallies =
      Parallel.run ~domains:workers (fun w ->
          Server.with_connection ep (fun fd ->
              let ok = ref 0 in
              for i = 0 to reqs - 1 do
                let text = req_texts.((w + i) mod Array.length req_texts) in
                let req =
                  Telemetry.Json.Obj
                    [ ("op", Telemetry.Json.Str "query");
                      ("pattern", Telemetry.Json.Str text) ]
                in
                match Server.request fd req with
                | Ok resp
                  when Option.bind (Telemetry.Json.member "ok" resp) (function
                         | Telemetry.Json.Bool b -> Some b
                         | _ -> None)
                       = Some true -> incr ok
                | _ -> ()
              done;
              !ok))
    in
    let elapsed_s = (Telemetry.now_us () -. t0) /. 1e6 in
    (Array.fold_left ( + ) 0 tallies, elapsed_s)
  in
  let qps_of d =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "expfinder-p1-%d-%d.sock" (Unix.getpid ()) d)
    in
    let ep = Server.Unix_socket path in
    let engine = Engine.create g in
    let ready = Atomic.make false in
    let srv =
      Domain.spawn (fun () ->
          Server.serve ~sample_period:0.0 ~domains:d
            ~on_listen:(fun () -> Atomic.set ready true)
            engine ep)
    in
    while not (Atomic.get ready) do
      Unix.sleepf 0.002
    done;
    let ok, elapsed_s = soak ep in
    (match
       Server.with_connection ep (fun fd ->
           Server.request fd (Telemetry.Json.Obj [ ("op", Telemetry.Json.Str "shutdown") ]))
     with
    | Ok _ | Error _ -> ());
    Domain.join srv;
    check (Printf.sprintf "all %d soak requests answered ok (pool size %d)" (workers * reqs) d)
      (ok = workers * reqs);
    let qps = float_of_int ok /. max elapsed_s 1e-9 in
    record
      ~id:(Printf.sprintf "EXP-P1.domains%d" d)
      ~params:
        [ ("domains", Telemetry.Json.Int d);
          ("workers", Telemetry.Json.Int workers);
          ("requests", Telemetry.Json.Int (workers * reqs));
          ("qps", Telemetry.Json.Float qps) ]
      [ elapsed_s *. 1000.0 ];
    qps
  in
  Printf.printf "  %d client workers x %d requests, |V| = %d, host cores = %d\n" workers reqs n
    (Domain.recommended_domain_count ());
  let base = ref None in
  List.iter
    (fun d ->
      let qps = qps_of d in
      let speedup = match !base with None -> base := Some qps; 1.0 | Some b -> qps /. b in
      Printf.printf "  pool = %d domains: %8.1f req/s  (%.2fx vs 1 domain)\n" d qps speedup)
    pool_sizes

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment              *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let collab = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let flat1k = Snapshot.of_digraph (flat_graph ~n:1_000) in
  let qb = bench_query () and qs = bench_query_sim () in
  let twitter1k = Snapshot.of_digraph (Twitter.generate (Prng.create 9) ~n:1_000) in
  let tw_query =
    Pattern.make_exn
      ~nodes:
        [|
          { Pattern.name = "DB"; label = Some (Label.of_string "DB"); pred = Predicate.always };
          { Pattern.name = "ML"; label = Some (Label.of_string "ML"); pred = Predicate.always };
        |]
      ~edges:[ (1, 0, Pattern.Bounded 2) ]
      ~output:0
  in
  let m_tw = Bounded_sim.run tw_query twitter1k in
  let gr_tw = Result_graph.build tw_query twitter1k m_tw in
  let tw_matches = Match_relation.matches m_tw 0 in
  (* Incremental unit update on a persistent tracker: insert then delete
     restores the state, so the function is idempotent across runs. *)
  let inc_g = flat_graph ~n:1_000 in
  let inc = Incremental.create qb inc_g in
  let a, b =
    match Update.random_insertions (Prng.create 3) inc_g 1 with
    | [ Update.Insert_edge (a, b) ] -> (a, b)
    | _ -> (0, 1)
  in
  let org = Synthetic.org (Prng.create 8) ~teams:60 ~team_size:7 in
  let org_csr = Snapshot.of_digraph org in
  let compressed = Compress.compress ~atoms:Queries.atom_universe org_csr in
  let org_query =
    match Queries.workload (Prng.create 12) ~count:1 ~simulation:false org with
    | [ q ] -> q
    | _ -> qb
  in
  let inc_c_g = Digraph.copy org in
  let inc_c = Inc_compress.create ~atoms:Queries.atom_universe inc_c_g in
  let ca, cb =
    match Update.random_insertions (Prng.create 4) inc_c_g 1 with
    | [ Update.Insert_edge (a, b) ] -> (a, b)
    | _ -> (0, 1)
  in
  let engine = Engine.create (Digraph.copy org) in
  let (_ : Engine.answer) = Engine.evaluate engine org_query in
  Test.make_grouped ~name:"expfinder"
    [
      Test.make ~name:"F1-example1-bsim-collab"
        (Staged.stage (fun () -> ignore (Bounded_sim.run q collab : Match_relation.t)));
      Test.make ~name:"F2-ranking-collab"
        (Staged.stage (fun () ->
             let m = Bounded_sim.run q collab in
             let gr = Result_graph.build q collab m in
             ignore
               (Ranking.top_k gr ~output_matches:(Match_relation.matches m 0) ~k:1
                 : (int * Ranking.rank) list)));
      Test.make ~name:"Q1-sim-flat1k"
        (Staged.stage (fun () -> ignore (Simulation.run qs flat1k : Match_relation.t)));
      Test.make ~name:"Q1-bsim-flat1k"
        (Staged.stage (fun () -> ignore (Bounded_sim.run qb flat1k : Match_relation.t)));
      Test.make ~name:"Q2-topk-twitter1k"
        (Staged.stage (fun () ->
             ignore
               (Ranking.top_k gr_tw ~output_matches:tw_matches ~k:10
                 : (int * Ranking.rank) list)));
      Test.make ~name:"I1-unit-update-flat1k"
        (Staged.stage (fun () ->
             ignore
               (Incremental.apply_updates inc inc_g [ Update.Insert_edge (a, b) ]
                 : Incremental.report);
             ignore
               (Incremental.apply_updates inc inc_g [ Update.Delete_edge (a, b) ]
                 : Incremental.report)));
      Test.make ~name:"C1-compress-org500"
        (Staged.stage (fun () ->
             ignore (Compress.compress ~atoms:Queries.atom_universe org_csr : Compress.t)));
      Test.make ~name:"C2-query-compressed-org500"
        (Staged.stage (fun () ->
             ignore (Compress.evaluate compressed org_query : Match_relation.t)));
      Test.make ~name:"C3-maintain-gc-org500"
        (Staged.stage (fun () ->
             ignore
               (Inc_compress.apply_updates inc_c inc_c_g [ Update.Insert_edge (ca, cb) ]
                 : Inc_compress.report);
             ignore
               (Inc_compress.apply_updates inc_c inc_c_g [ Update.Delete_edge (ca, cb) ]
                 : Inc_compress.report)));
      Test.make ~name:"K1-cache-hit"
        (Staged.stage (fun () -> ignore (Engine.evaluate engine org_query : Engine.answer)));
      Test.make ~name:"A1-bsim-naive-flat1k"
        (Staged.stage (fun () ->
             ignore (Bounded_sim.run ~strategy:Bounded_sim.Naive qb flat1k : Match_relation.t)));
      Test.make ~name:"A2-simeq-org500"
        (Staged.stage (fun () ->
             ignore
               (Sim_equivalence.compute (Snapshot.csr org_csr) ~key:(fun v ->
                    Label.to_int (Snapshot.label org_csr v))
                 : int array)));
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  header "Bechamel micro-benchmarks (OLS fit per run)";
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with Some (t :: _) -> t | _ -> nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) ->
      if ns >= 1_000_000.0 then Printf.printf "  %-46s %12.3f ms/run\n" name (ns /. 1_000_000.0)
      else if ns >= 1_000.0 then Printf.printf "  %-46s %12.3f us/run\n" name (ns /. 1_000.0)
      else Printf.printf "  %-46s %12.1f ns/run\n" name ns)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("EXP-F1", exp_fig1);
    ("EXP-F2", exp_example2);
    ("EXP-F3", exp_example3);
    ("EXP-F4", exp_fig5);
    ("EXP-B1", exp_semantics);
    ("EXP-B2", exp_batch);
    ("EXP-Q1", exp_query_scaling);
    ("EXP-Q2", exp_topk_scaling);
    ("EXP-I1", exp_incremental_unit);
    ("EXP-I2", exp_incremental_batch);
    ("EXP-C1", exp_compression_ratio);
    ("EXP-C2", exp_compressed_query);
    ("EXP-C3", exp_compression_maintain);
    ("EXP-K1", exp_cache);
    ("EXP-A1", exp_ablation_bsim_strategy);
    ("EXP-A2", exp_ablation_equivalence);
    ("EXP-A3", exp_ablation_area);
    ("EXP-A4", exp_ablation_ball_index);
    ("EXP-A5", exp_ablation_minimise);
    ("EXP-T1", exp_telemetry_cost);
    ("EXP-T2", exp_profile_cost);
    ("EXP-P1", exp_parallel_serve);
  ]

let contains_substring haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub haystack i k = needle || scan (i + 1)) in
  scan 0

let () =
  let full = Array.exists (( = ) "--full") Sys.argv in
  let bechamel = Array.exists (( = ) "--bechamel") Sys.argv in
  let flag_arg name =
    let rec scan i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
      else scan (i + 1)
    in
    scan 1
  in
  let only =
    let rec collect i acc =
      if i >= Array.length Sys.argv then acc
      else if Sys.argv.(i) = "--only" && i + 1 < Array.length Sys.argv then
        collect (i + 2) (Sys.argv.(i + 1) :: acc)
      else collect (i + 1) acc
    in
    collect 1 []
  in
  let json_file = flag_arg "--json" in
  if json_file <> None then
    report := Some (Report.create ~mode:(if full then "full" else "quick") ());
  let selected name =
    only = [] || List.exists (fun pat -> contains_substring name pat) only
  in
  Printf.printf "ExpFinder experiment harness (%s mode)\n" (if full then "full" else "quick");
  let t0 = Telemetry.now_us () in
  List.iter
    (fun (name, f) ->
      if selected name then begin
        (* One wall-clock record per experiment, on top of whatever
           finer-grained rows the experiment itself records. *)
        let (), wall_ms = time_once (fun () -> f ~full) in
        record ~id:name [ wall_ms ]
      end)
    experiments;
  if bechamel then run_bechamel ();
  (match (json_file, !report) with
  | Some path, Some r ->
    Report.write r path;
    Printf.printf "\nstructured report: %d records -> %s\n" (List.length (Report.records r)) path
  | _ -> ());
  Printf.printf "\ntotal harness time: %.1f s\n" ((Telemetry.now_us () -. t0) /. 1e6)
