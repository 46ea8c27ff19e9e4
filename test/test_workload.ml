(* Workload generators: shapes, determinism and compressibility. *)

open Expfinder_graph
open Expfinder_pattern
module Synthetic = Expfinder_workload.Synthetic
module Twitter = Expfinder_workload.Twitter
module Queries = Expfinder_workload.Queries

let test_flat_shape () =
  let g = Synthetic.flat (Prng.create 1) ~n:500 ~avg_degree:4 in
  Alcotest.(check int) "nodes" 500 (Digraph.node_count g);
  Alcotest.(check int) "edges" 2000 (Digraph.edge_count g);
  let exp_ok = ref true in
  Digraph.iter_nodes g (fun v ->
      let e = Synthetic.exp_of g v in
      if e < 0 || e > 10 then exp_ok := false);
  Alcotest.(check bool) "exp range" true !exp_ok

let test_flat_deterministic () =
  let g1 = Synthetic.flat (Prng.create 7) ~n:100 ~avg_degree:3 in
  let g2 = Synthetic.flat (Prng.create 7) ~n:100 ~avg_degree:3 in
  Alcotest.(check bool) "same graph" true (Digraph.equal_structure g1 g2)

let test_org_shape () =
  let g = Synthetic.org (Prng.create 2) ~teams:10 ~team_size:6 in
  (* 10 managers + 60 workers + 1 director *)
  Alcotest.(check int) "nodes" 71 (Digraph.node_count g);
  (* Workers point to their manager; managers to workers and director. *)
  Alcotest.(check bool) "edges present" true (Digraph.edge_count g > 100)

let test_org_compresses_well () =
  let g = Snapshot.of_digraph (Synthetic.org (Prng.create 3) ~teams:20 ~team_size:8) in
  let compressed = Expfinder_compression.Compress.compress ~atoms:Queries.atom_universe g in
  Alcotest.(check bool) "compression > 30%" true
    (Expfinder_compression.Compress.node_ratio compressed > 0.3)

let test_twitter_shape () =
  let g = Twitter.generate (Prng.create 4) ~n:400 in
  Alcotest.(check int) "nodes" 400 (Digraph.node_count g);
  let max_in = ref 0 in
  Digraph.iter_nodes g (fun v -> max_in := max !max_in (Digraph.in_degree g v));
  Alcotest.(check bool) "skewed degrees" true (!max_in > 15);
  (* followers attribute matches in-degree *)
  let ok = ref true in
  Digraph.iter_nodes g (fun v ->
      match Attrs.find (Digraph.attrs g v) "followers" with
      | Some (Attr.Int f) -> if f <> Digraph.in_degree g v then ok := false
      | _ -> ok := false);
  Alcotest.(check bool) "followers recorded" true !ok

let test_distinct_labels () =
  let g = Expfinder_workload.Collab.graph () in
  let labels = Queries.distinct_labels g in
  Alcotest.(check int) "5 labels" 5 (Array.length labels)

let test_workload_queries_supported () =
  let rng = Prng.create 5 in
  let g = Synthetic.flat rng ~n:200 ~avg_degree:4 in
  let queries = Queries.workload rng ~count:20 ~simulation:false g in
  Alcotest.(check int) "20 queries" 20 (List.length queries);
  let compressed =
    Expfinder_compression.Compress.compress ~atoms:Queries.atom_universe (Snapshot.of_digraph g)
  in
  List.iter
    (fun q ->
      Alcotest.(check bool) "supported" true
        (Expfinder_compression.Compress.supports compressed q))
    queries;
  let sim_queries = Queries.workload rng ~count:5 ~simulation:true g in
  List.iter
    (fun q -> Alcotest.(check bool) "simulation" true (Pattern.is_simulation_pattern q))
    sim_queries

(* Exact match sets for the Fig. 4 queries on the Fig. 1 network. *)
let test_collab_q1_q2_q3_matches () =
  let open Expfinder_core in
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let open Expfinder_workload in
  (* Q1 (plain simulation): direct SA<->SD collaboration = Bob and Dan. *)
  let m1 = Bounded_sim.run (Collab.q1 ()) g in
  Alcotest.(check (list int)) "Q1 SA" [ Collab.bob ] (Match_relation.matches m1 0);
  Alcotest.(check (list int)) "Q1 SD" [ Collab.dan ] (Match_relation.matches m1 1);
  (* Q2: only Bob reaches a tester within 3 hops. *)
  let m2 = Bounded_sim.run (Collab.q2 ()) g in
  Alcotest.(check (list int)) "Q2 SA" [ Collab.bob ] (Match_relation.matches m2 0);
  Alcotest.(check (list int)) "Q2 ST" [ Collab.eva ] (Match_relation.matches m2 2);
  (* Q3 (unbounded edges): both SAs, all SDs that reach an SA. *)
  let m3 = Bounded_sim.run (Collab.q3 ()) g in
  Alcotest.(check (list int)) "Q3 SA" [ Collab.walt; Collab.bob ] (Match_relation.matches m3 0);
  Alcotest.(check (list int)) "Q3 SD"
    (List.sort compare [ Collab.dan; Collab.mat; Collab.pat ])
    (Match_relation.matches m3 1)

(* Matching stays well-behaved at two orders of magnitude above the
   unit-test sizes. *)
let test_large_graph_smoke () =
  let open Expfinder_core in
  let g = Snapshot.of_digraph (Synthetic.flat (Prng.create 9) ~n:50_000 ~avg_degree:4) in
  let q =
    let spec name label k =
      { Pattern.name; label = Some (Label.of_string label); pred = Predicate.ge_int "exp" k }
    in
    Pattern.make_exn
      ~nodes:[| spec "SA" "SA" 5; spec "SD" "SD" 2 |]
      ~edges:[ (0, 1, Pattern.Bounded 2); (1, 0, Pattern.Bounded 2) ]
      ~output:0
  in
  let m = Bounded_sim.run q g in
  Alcotest.(check bool) "nonempty at scale" true (Match_relation.is_total m);
  Alcotest.(check bool) "consistent at scale" true (Bounded_sim.consistent q g m)

let test_collab_graph_sanity () =
  let g = Expfinder_workload.Collab.graph () in
  Alcotest.(check int) "9 people" 9 (Digraph.node_count g);
  Alcotest.(check int) "14 edges" 14 (Digraph.edge_count g);
  Alcotest.(check string) "name_of" "Bob" (Expfinder_workload.Collab.name_of 1);
  Alcotest.(check bool) "e1 absent" false
    (Digraph.has_edge g (fst Expfinder_workload.Collab.e1) (snd Expfinder_workload.Collab.e1))

(* --- capture / replay --------------------------------------------------- *)

let with_qlog_capture f =
  let open Expfinder_telemetry in
  let path = Filename.temp_file "expfinder-replay" ".jsonl" in
  Qlog.set_sink (Some path);
  Fun.protect
    ~finally:(fun () ->
      Qlog.set_sink None;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Serve a small mixed workload with the query log on, then replay the
   log on a fresh engine over the same base graph: every answer digest
   must reproduce, including the queries that run after the update. *)
let test_replay_roundtrip () =
  let open Expfinder_engine in
  let open Expfinder_telemetry in
  let module Collab = Expfinder_workload.Collab in
  let module Replay = Expfinder_workload.Replay in
  with_qlog_capture (fun path ->
      let engine = Engine.create (Collab.graph ()) in
      ignore (Engine.evaluate engine (Collab.q1 ()));
      ignore (Engine.evaluate engine (Collab.q2 ()));
      let src, dst = Collab.e1 in
      ignore (Engine.apply_updates engine [ Expfinder_incremental.Update.Insert_edge (src, dst) ]);
      ignore (Engine.evaluate engine (Collab.q1 ()));
      ignore (Engine.evaluate_batch engine [ Collab.q1 (); Collab.q3 () ]);
      Qlog.close ();
      let events =
        match Qlog.load path with Ok e -> e | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "5 events captured" 5 (List.length events);
      let summary = Replay.run (Engine.create (Collab.graph ())) events in
      Alcotest.(check int) "all replayed" 5 summary.Replay.replayed;
      Alcotest.(check int) "no skips" 0 summary.Replay.skipped;
      Alcotest.(check int) "no mismatches" 0 summary.Replay.mismatches;
      (* The derived bench report holds one replayed/recorded record pair
         per distinct request plus the aggregate, and diffing it against
         itself never regresses. *)
      let report = Replay.report summary in
      let ids = List.map (fun r -> r.Report.id) (Report.records report) in
      Alcotest.(check bool) "aggregate record present" true (List.mem "REPLAY.total" ids);
      Alcotest.(check bool) "recorded latencies kept alongside" true
        (List.exists (fun id -> String.length id > 5 && String.sub id 0 5 = "QLOG.") ids);
      let self = Report.diff ~baseline:report ~candidate:report () in
      Alcotest.(check bool) "self-diff has no regressions" false (Report.has_regression self))

(* A divergent engine state must be caught: replaying against a graph
   that already contains the captured update's edge flips the first
   query's digest. *)
let test_replay_detects_divergence () =
  let open Expfinder_engine in
  let open Expfinder_telemetry in
  let module Collab = Expfinder_workload.Collab in
  let module Replay = Expfinder_workload.Replay in
  with_qlog_capture (fun path ->
      let engine = Engine.create (Collab.graph ()) in
      ignore (Engine.evaluate engine (Collab.q3 ()));
      Qlog.close ();
      let events = match Qlog.load path with Ok e -> e | Error e -> Alcotest.fail e in
      (* Tampered digest: flip a hex digit in the recorded answer. *)
      let tampered =
        List.map
          (fun (e : Qlog.event) ->
            { e with Qlog.digest = (if e.Qlog.digest = "" then "" else "0" ^ String.sub e.Qlog.digest 1 (String.length e.Qlog.digest - 1)) })
          events
      in
      let summary = Replay.run (Engine.create (Collab.graph ())) tampered in
      Alcotest.(check bool) "tampering detected" true (summary.Replay.mismatches >= 1);
      Alcotest.(check int) "mismatch listed" summary.Replay.mismatches
        (List.length (Replay.mismatches summary));
      (* Divergent base state: the captured graph plus a foreign edge. *)
      let g = Collab.graph () in
      let src, dst = Collab.e1 in
      ignore (Expfinder_incremental.Update.apply g (Expfinder_incremental.Update.Insert_edge (src, dst)));
      let summary = Replay.run (Engine.create g) events in
      Alcotest.(check bool) "divergent graph detected" true (summary.Replay.mismatches >= 1))

(* A recorded pair count is checked too: raising one query event's
   [pairs], or one batch event's, makes exactly that event a mismatch,
   with its digest still reproduced. *)
let test_replay_detects_pairs () =
  let open Expfinder_engine in
  let open Expfinder_telemetry in
  let module Collab = Expfinder_workload.Collab in
  let module Replay = Expfinder_workload.Replay in
  with_qlog_capture (fun path ->
      let engine = Engine.create (Collab.graph ()) in
      ignore (Engine.evaluate engine (Collab.q1 ()));
      ignore (Engine.evaluate_batch engine [ Collab.q1 (); Collab.q3 () ]);
      Qlog.close ();
      let events = match Qlog.load path with Ok e -> e | Error e -> Alcotest.fail e in
      let untouched = Replay.run (Engine.create (Collab.graph ())) events in
      Alcotest.(check int) "untouched log replays clean" 0 untouched.Replay.mismatches;
      List.iter
        (fun kind ->
          let tampered =
            List.map
              (fun (e : Qlog.event) ->
                if e.Qlog.kind = kind then { e with Qlog.pairs = e.Qlog.pairs + 1 } else e)
              events
          in
          let summary = Replay.run (Engine.create (Collab.graph ())) tampered in
          let name = Qlog.kind_name kind in
          Alcotest.(check int) (name ^ ": one mismatch") 1 summary.Replay.mismatches;
          match Replay.mismatches summary with
          | [ o ] ->
            Alcotest.(check bool) (name ^ ": the tampered event") true
              (o.Replay.event.Qlog.kind = kind);
            Alcotest.(check string) (name ^ ": digest still reproduced") o.Replay.event.Qlog.digest
              o.Replay.digest;
            Alcotest.(check int) (name ^ ": the replayed count is the original")
              (o.Replay.event.Qlog.pairs - 1) o.Replay.pairs
          | _ -> Alcotest.fail "expected one mismatch")
        [ Qlog.Query; Qlog.Batch ])

(* Events that recorded an error or carry no payload are skipped, not
   failed. *)
let test_replay_skips () =
  let open Expfinder_engine in
  let open Expfinder_telemetry in
  let module Collab = Expfinder_workload.Collab in
  let module Replay = Expfinder_workload.Replay in
  with_qlog_capture (fun path ->
      let engine = Engine.create (Collab.graph ()) in
      ignore (Engine.evaluate engine (Collab.q1 ()));
      Qlog.close ();
      let events = match Qlog.load path with Ok e -> e | Error e -> Alcotest.fail e in
      let stripped =
        List.concat_map
          (fun (e : Qlog.event) ->
            [ { e with Qlog.payload = None }; { e with Qlog.error = Some "boom" } ])
          events
      in
      let summary = Replay.run (Engine.create (Collab.graph ())) stripped in
      Alcotest.(check int) "all skipped" 2 summary.Replay.skipped;
      Alcotest.(check int) "none replayed" 0 summary.Replay.replayed;
      Alcotest.(check int) "skips are not mismatches" 0 summary.Replay.mismatches)

(* An event whose replay raises — here an update naming a node the
   current graph lacks, which Digraph rejects with Invalid_argument —
   must surface as a mismatch carrying the error text, and the events
   after it must still replay. *)
let test_replay_crash_is_mismatch () =
  let open Expfinder_engine in
  let open Expfinder_telemetry in
  let module Collab = Expfinder_workload.Collab in
  let module Replay = Expfinder_workload.Replay in
  with_qlog_capture (fun path ->
      let engine = Engine.create (Collab.graph ()) in
      let src, dst = Collab.e1 in
      ignore (Engine.apply_updates engine [ Expfinder_incremental.Update.Insert_edge (src, dst) ]);
      ignore (Engine.evaluate engine (Collab.q1 ()));
      Qlog.close ();
      let events = match Qlog.load path with Ok e -> e | Error e -> Alcotest.fail e in
      let poisoned =
        List.map
          (fun (e : Qlog.event) ->
            if e.Qlog.kind = Qlog.Update then
              {
                e with
                Qlog.payload =
                  Some
                    (Json.Arr
                       [
                         Json.Obj
                           [ ("op", Json.Str "+"); ("u", Json.Int 999_999); ("v", Json.Int 0) ];
                       ]);
              }
            else e)
          events
      in
      let summary = Replay.run (Engine.create (Collab.graph ())) poisoned in
      Alcotest.(check int) "nothing skipped" 0 summary.Replay.skipped;
      Alcotest.(check int) "both events replayed" 2 summary.Replay.replayed;
      Alcotest.(check bool) "crash reported as mismatch" true (summary.Replay.mismatches >= 1);
      let crashed =
        List.find (fun (o : Replay.outcome) -> not o.Replay.matched) summary.Replay.outcomes
      in
      Alcotest.(check bool) "mismatch digest carries the error text" true
        (String.length crashed.Replay.digest > 6
        && String.sub crashed.Replay.digest 0 6 = "error:"))

(* Schema-compatibility regression: the committed fixture was captured
   by a pre-trace-context build (schema v1, no trace_id member) against
   the collab smoke workload.  A v2 loader must keep accepting it —
   trace ids default to "" — and replay it with zero digest
   mismatches. *)
let test_replay_v1_fixture () =
  let open Expfinder_engine in
  let open Expfinder_telemetry in
  let module Collab = Expfinder_workload.Collab in
  let module Replay = Expfinder_workload.Replay in
  (* dune runtest runs in the stanza directory; dune exec from the
     project root does not — fall back to the executable's directory,
     where the declared dep is materialised either way. *)
  let fixture =
    if Sys.file_exists "fixtures/qlog_v1.jsonl" then "fixtures/qlog_v1.jsonl"
    else Filename.concat (Filename.dirname Sys.executable_name) "fixtures/qlog_v1.jsonl"
  in
  let events = match Qlog.load fixture with Ok e -> e | Error e -> Alcotest.fail e in
  Alcotest.(check int) "all fixture events parsed" 9 (List.length events);
  List.iter
    (fun (e : Qlog.event) ->
      Alcotest.(check string) "v1 events carry no trace id" "" e.Qlog.trace_id)
    events;
  let summary = Replay.run (Engine.create (Collab.graph ())) events in
  Alcotest.(check int) "all replayed" 9 summary.Replay.replayed;
  Alcotest.(check int) "no mismatches" 0 summary.Replay.mismatches;
  (* Identity-free events yield reports without a trace_ids param. *)
  let report = Replay.report summary in
  List.iter
    (fun (r : Report.record) ->
      Alcotest.(check bool)
        ("no trace_ids on " ^ r.Report.id)
        false
        (List.mem_assoc "trace_ids" r.Report.params))
    (Report.records report)

(* v2 capture: requests evaluated under an explicit trace context stamp
   their id into the qlog line, and replay carries the captured ids into
   the matching REPLAY.* / QLOG.* report records. *)
let test_replay_preserves_trace_ids () =
  let open Expfinder_engine in
  let open Expfinder_telemetry in
  let module Collab = Expfinder_workload.Collab in
  let module Replay = Expfinder_workload.Replay in
  with_qlog_capture (fun path ->
      let engine = Engine.create (Collab.graph ()) in
      let ctx = Trace.make ~sampled:true () in
      ignore (Engine.evaluate ~trace:ctx engine (Collab.q1 ()));
      Qlog.close ();
      let events = match Qlog.load path with Ok e -> e | Error e -> Alcotest.fail e in
      (match events with
      | [ e ] -> Alcotest.(check string) "qlog line carries the trace id" ctx.Trace.trace_id e.Qlog.trace_id
      | _ -> Alcotest.fail "expected exactly one captured event");
      let summary = Replay.run (Engine.create (Collab.graph ())) events in
      Alcotest.(check int) "no mismatches" 0 summary.Replay.mismatches;
      let report = Replay.report summary in
      let replay_record =
        List.find
          (fun (r : Report.record) ->
            String.length r.Report.id > 7 && String.sub r.Report.id 0 7 = "REPLAY."
            && r.Report.id <> "REPLAY.total")
          (Report.records report)
      in
      match List.assoc_opt "trace_ids" replay_record.Report.params with
      | Some (Json.Arr [ Json.Str tid ]) ->
        Alcotest.(check string) "captured trace id preserved" ctx.Trace.trace_id tid
      | _ -> Alcotest.fail "REPLAY record lacks its trace_ids param")

let () =
  Alcotest.run "workload"
    [
      ( "synthetic",
        [
          Alcotest.test_case "flat shape" `Quick test_flat_shape;
          Alcotest.test_case "flat deterministic" `Quick test_flat_deterministic;
          Alcotest.test_case "org shape" `Quick test_org_shape;
          Alcotest.test_case "org compresses" `Quick test_org_compresses_well;
        ] );
      ("twitter", [ Alcotest.test_case "shape" `Quick test_twitter_shape ]);
      ( "queries",
        [
          Alcotest.test_case "distinct labels" `Quick test_distinct_labels;
          Alcotest.test_case "workload supported" `Quick test_workload_queries_supported;
        ] );
      ( "collab",
        [
          Alcotest.test_case "graph sanity" `Quick test_collab_graph_sanity;
          Alcotest.test_case "Q1-Q3 exact matches" `Quick test_collab_q1_q2_q3_matches;
        ] );
      ( "replay",
        [
          Alcotest.test_case "capture/replay roundtrip" `Quick test_replay_roundtrip;
          Alcotest.test_case "divergence detected" `Quick test_replay_detects_divergence;
          Alcotest.test_case "pair count tampering detected" `Quick test_replay_detects_pairs;
          Alcotest.test_case "errored/payload-free events skipped" `Quick test_replay_skips;
          Alcotest.test_case "raising event is a mismatch, not a crash" `Quick
            test_replay_crash_is_mismatch;
          Alcotest.test_case "v1 fixture still loads and replays" `Quick test_replay_v1_fixture;
          Alcotest.test_case "trace ids preserved into replay reports" `Quick
            test_replay_preserves_trace_ids;
        ] );
      ("scale", [ Alcotest.test_case "50k-node smoke" `Slow test_large_graph_smoke ]);
    ]
