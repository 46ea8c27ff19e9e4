(* Multicore execution model: the parallel primitives and the
   epoch-pinning contract under a concurrent writer. *)

open Expfinder_graph
open Expfinder_core
open Expfinder_incremental
open Expfinder_engine
module Telemetry = Expfinder_telemetry
module Parallel = Expfinder_parallel
module Collab = Expfinder_workload.Collab
module Queries = Expfinder_workload.Queries
module Synthetic = Expfinder_workload.Synthetic
module Pattern = Expfinder_pattern.Pattern

(* --- primitives -------------------------------------------------------- *)

let test_run_join_order () =
  let results = Parallel.run ~domains:4 (fun i -> i * i) in
  Alcotest.(check (list int)) "chunk results in order" [ 0; 1; 4; 9 ]
    (Array.to_list results)

let test_run_propagates_exception () =
  match Parallel.run ~domains:3 (fun i -> if i = 1 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected the chunk exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "first error wins" "boom" msg

let test_chan_fifo_and_close () =
  let c = Parallel.Chan.create ~capacity:8 () in
  List.iter (fun i -> Parallel.Chan.push c i) [ 1; 2; 3 ];
  Alcotest.(check int) "queued" 3 (Parallel.Chan.length c);
  Parallel.Chan.close c;
  (* Close drains: queued items still pop, then None. *)
  Alcotest.(check (list (option int))) "fifo then end-of-stream"
    [ Some 1; Some 2; Some 3; None ]
    (List.init 4 (fun _ -> Parallel.Chan.pop c));
  match Parallel.Chan.push c 4 with
  | () -> Alcotest.fail "push on a closed channel must raise"
  | exception Invalid_argument _ -> ()

let test_chan_bounded_blocks_until_popped () =
  let c = Parallel.Chan.create ~capacity:1 () in
  Parallel.Chan.push c 1;
  (* The second push must block until a consumer pops. *)
  let consumer =
    Domain.spawn (fun () ->
        let a = Parallel.Chan.pop c in
        let b = Parallel.Chan.pop c in
        (a, b))
  in
  Parallel.Chan.push c 2;
  Parallel.Chan.close c;
  let a, b = Domain.join consumer in
  Alcotest.(check (pair (option int) (option int))) "both delivered" (Some 1, Some 2) (a, b)

let test_pool_runs_all_jobs () =
  let hits = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let pool =
    Parallel.Pool.create ~domains:3 ~on_error:(fun _ -> Atomic.incr errors) ()
  in
  Alcotest.(check int) "pool size" 3 (Parallel.Pool.size pool);
  for _ = 1 to 50 do
    Parallel.Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Parallel.Pool.submit pool (fun () -> failwith "job error");
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "every job ran before shutdown returned" 50 (Atomic.get hits);
  Alcotest.(check int) "the failing job hit the error sink" 1 (Atomic.get errors)

(* More workers than the runtime can host: the spawn fails partway.
   The workers already running must be joined, not left blocked on the
   job channel holding domain slots — which the second pool proves by
   being able to spawn at all. *)
let test_pool_spawn_failure_joins_workers () =
  (match Parallel.Pool.create ~domains:200 () with
  | pool ->
    Parallel.Pool.shutdown pool;
    Alcotest.fail "expected a 200-domain pool to fail"
  | exception Failure _ -> ());
  let pool = Parallel.Pool.create ~domains:2 () in
  let hits = Atomic.make 0 in
  Parallel.Pool.submit pool (fun () -> Atomic.incr hits);
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "a later pool still serves" 1 (Atomic.get hits)

(* --- pool/channel metrics under contention ----------------------------- *)

let test_pool_metrics_under_contention () =
  (* Saturate a 2-worker, capacity-2 pool: both workers block on a gate,
     two more jobs fill the bounded queue, and a fifth submit must wait
     for capacity.  The depth gauge, wait histograms and per-worker
     accounting all have to move. *)
  let depth = Telemetry.Metrics.gauge "chan.tpool.jobs.depth" in
  let busy = Telemetry.Metrics.gauge "tpool.busy" in
  let h_push = Telemetry.Metrics.histogram "chan.tpool.jobs.push_wait_us" in
  let h_pop = Telemetry.Metrics.histogram "chan.tpool.jobs.pop_wait_us" in
  let base_push = Telemetry.Histogram.count h_push in
  let base_pop = Telemetry.Histogram.count h_pop in
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let gate_open = ref false in
  let wait_gate () =
    Mutex.lock gate_m;
    while not !gate_open do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m
  in
  let ran = Atomic.make 0 in
  let pool = Parallel.Pool.create ~name:"tpool" ~capacity:2 ~domains:2 () in
  for _ = 1 to 4 do
    Parallel.Pool.submit pool (fun () ->
        wait_gate ();
        Atomic.incr ran)
  done;
  (* Wait for both workers to hold a job, so the two remaining jobs
     sit in the queue and the gauge reads the true backlog. *)
  let rec await_busy tries =
    if Telemetry.Gauge.value busy < 2 && tries > 0 then begin
      Unix.sleepf 0.01;
      await_busy (tries - 1)
    end
  in
  await_busy 500;
  Alcotest.(check int) "both workers mid-job" 2 (Telemetry.Gauge.value busy);
  let depth_during = Telemetry.Gauge.value depth in
  (* The fifth submit blocks on the full queue, from a helper domain
     so this test can open the gate underneath it. *)
  let submitter =
    Domain.spawn (fun () -> Parallel.Pool.submit pool (fun () -> Atomic.incr ran))
  in
  Unix.sleepf 0.02;
  Mutex.lock gate_m;
  gate_open := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Domain.join submitter;
  Parallel.Pool.shutdown pool;
  Alcotest.(check int) "every job ran" 5 (Atomic.get ran);
  Alcotest.(check bool) "depth gauge saw the backlog"
    true (depth_during >= 2);
  Alcotest.(check int) "depth gauge drained to zero" 0
    (Telemetry.Gauge.value depth);
  Alcotest.(check int) "busy gauge returned to zero" 0
    (Telemetry.Gauge.value busy);
  Alcotest.(check bool) "push-wait histogram moved" true
    (Telemetry.Histogram.count h_push > base_push);
  Alcotest.(check bool) "pop-wait histogram moved" true
    (Telemetry.Histogram.count h_pop > base_pop);
  let counter name = Telemetry.Counter.value (Telemetry.Metrics.counter name) in
  Alcotest.(check int) "per-worker task counters account for every job" 5
    (counter "tpool.worker0.tasks" + counter "tpool.worker1.tasks");
  Alcotest.(check int) "aggregate task counter agrees" 5 (counter "tpool.tasks");
  Alcotest.(check bool) "busy/idle accounting accumulated" true
    (counter "tpool.worker0.busy_us" + counter "tpool.worker1.busy_us" >= 0
    && counter "tpool.worker0.idle_us" + counter "tpool.worker1.idle_us" > 0)

(* --- epoch pinning under a concurrent writer --------------------------- *)

let test_pinned_snapshot_under_writer () =
  let rng = Prng.create 7 in
  let g = Collab.graph () in
  let engine = Engine.create g in
  let q =
    match Queries.workload (Prng.create 11) ~count:1 ~simulation:true g with
    | [ q ] -> q
    | _ -> Alcotest.fail "workload did not yield one query"
  in
  let snap0 = Engine.snapshot engine in
  let epoch0 = Snapshot.epoch snap0 in
  let d0 = Match_relation.digest (Planner.run q snap0) in
  (* The reader evaluates on its pinned epoch in a loop; the writer
     advances epochs under it.  Immutable snapshots mean every re-read
     yields the same digest, however many updates land meanwhile.  The
     iteration count is fixed (not stop-flag-driven) so the test does
     not depend on scheduling on single-core hosts. *)
  let reader =
    Domain.spawn (fun () ->
        let stable = ref true in
        for _ = 1 to 60 do
          if Match_relation.digest (Planner.run q snap0) <> d0 then stable := false
        done;
        !stable)
  in
  for _ = 1 to 8 do
    ignore
      (Engine.apply_updates engine (Update.random_mixed rng g 3) : Incremental.report list)
  done;
  let stable = Domain.join reader in
  Alcotest.(check bool) "pinned-epoch answers never changed" true stable;
  Alcotest.(check int) "the pinned snapshot itself is untouched" epoch0
    (Snapshot.epoch snap0);
  (* The writer's epochs published: the engine's current snapshot moved
     on and answers on it match a from-scratch engine over the final
     graph. *)
  Alcotest.(check bool) "epoch advanced" true
    (Snapshot.epoch (Engine.snapshot engine) > epoch0);
  let fresh = Engine.create (Digraph.copy g) in
  Alcotest.(check string) "post-update answers match a fresh engine"
    (Match_relation.digest (Engine.evaluate fresh q).relation)
    (Match_relation.digest (Engine.evaluate engine q).relation)

let test_concurrent_readers_during_updates () =
  (* Engine-level interleaving: readers evaluate through the engine (cache,
     recorder, windows — all shared state) while updates apply.  The
     assertion is absence of crashes plus every answer digest belonging
     to some published epoch's answer set. *)
  let rng = Prng.create 23 in
  let g = Collab.graph () in
  let engine = Engine.create g in
  let q =
    match Queries.workload (Prng.create 5) ~count:1 ~simulation:true g with
    | [ q ] -> q
    | _ -> Alcotest.fail "workload did not yield one query"
  in
  (* Collect the answer digest on every epoch the writer will publish. *)
  let shadow = Digraph.copy g in
  let batches = List.init 6 (fun _ -> Update.random_mixed rng shadow 2) in
  let valid = Hashtbl.create 16 in
  let record_epoch dg =
    let snap = Snapshot.of_digraph dg in
    Hashtbl.replace valid (Match_relation.digest (Planner.run q snap)) ()
  in
  record_epoch shadow;
  List.iter
    (fun batch ->
      ignore (Update.apply_batch_filtered shadow batch : Update.t list);
      record_epoch shadow)
    batches;
  let reader =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        for _ = 1 to 120 do
          let answer = Engine.evaluate engine q in
          if not (Hashtbl.mem valid (Match_relation.digest answer.relation)) then incr bad
        done;
        !bad)
  in
  List.iter
    (fun batch ->
      ignore (Engine.apply_updates engine batch : Incremental.report list))
    batches;
  let bad = Domain.join reader in
  Alcotest.(check int) "every answer matched some published epoch" 0 bad

let test_top_k_during_node_inserts () =
  (* [top_k] ranks on the snapshot its answer was evaluated on.  The
     writer grows the graph under the reader: each batch inserts a node
     and an edge to it from Bob, an output match, so a result graph
     built on a later epoch than the answer's would walk onto a node the
     answer's relation has no room for.  The differential checker is on,
     so each answer is also re-checked, on that same snapshot.  Both
     loops are bounded; a start flag lines them up. *)
  Verify.set_differential true;
  Fun.protect ~finally:(fun () -> Verify.set_differential false) @@ fun () ->
  let g = Collab.graph () in
  let engine = Engine.create g in
  let q = Collab.query () in
  let go = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        for _ = 1 to 60 do
          let fresh = Digraph.node_count g in
          ignore
            (Engine.apply_updates engine
               [
                 Update.Insert_node (Label.of_string "SA", Attrs.empty);
                 Update.Insert_edge (Collab.bob, fresh);
               ]
              : Incremental.report list)
        done)
  in
  Atomic.set go true;
  let raised = ref 0 and empty = ref 0 in
  for _ = 1 to 400 do
    match Engine.top_k engine q ~k:2 with
    | [] -> incr empty
    | _ -> ()
    | exception _ -> incr raised
  done;
  Domain.join writer;
  Alcotest.(check int) "no top_k call raised" 0 !raised;
  Alcotest.(check int) "every call ranked experts" 0 !empty

let same_answer a b =
  match (Match_relation.is_total a, Match_relation.is_total b) with
  | false, false -> true
  | true, true -> Match_relation.equal a b
  | _ -> false

let test_register_during_updates () =
  (* [Engine.register] evaluates a query while another domain streams
     update batches.  Each query must be evaluated on one epoch and then
     synced by every later batch: a tracker evaluated on a digraph in
     mid-mutation, or registered one batch behind, would serve a wrong
     kernel through the registered fast path.  The writer stops three
     batches after the last registration; every registered read must
     then equal direct evaluation on the final graph.  Four rounds, each
     on a fresh engine; every loop is bounded. *)
  let wrong = ref 0 in
  for round = 1 to 4 do
    let g = Synthetic.flat (Prng.create (30 + round)) ~n:600 ~avg_degree:4 in
    let engine = Engine.create g in
    let patterns = Queries.workload (Prng.create round) ~count:12 ~simulation:false g in
    let registered = Atomic.make false in
    let writer =
      Domain.spawn (fun () ->
          let rng = Prng.create (40 + round) in
          let after = ref 0 and batches = ref 0 in
          while !after < 3 && !batches < 2_000 do
            if Atomic.get registered then incr after;
            incr batches;
            ignore
              (Engine.apply_updates engine (Update.random_mixed rng g 6) : Incremental.report list)
          done)
    in
    List.iter (Engine.register engine) patterns;
    Atomic.set registered true;
    Domain.join writer;
    let snap = Snapshot.of_digraph g in
    List.iter
      (fun p ->
        if not (same_answer (Engine.evaluate engine p).relation (Planner.run p snap)) then
          incr wrong)
      patterns
  done;
  Alcotest.(check int) "registered reads = direct evaluation" 0 !wrong

let test_registered_reads_during_syncs () =
  (* A reader domain loops over the registered patterns while a writer
     domain streams update batches on an org graph where compression
     pays, so every batch also syncs the compressed graph.  Each read
     must return the answer of some published epoch, and none may fall
     through to containment or the planner: a read that lands while the
     writer syncs is served the previous epoch's maintained kernel.
     The planner and containment counters move whenever either runs;
     the differential checker, which calls the planner by design, is
     forced off.  Both loops are bounded; a start
     flag lines them up. *)
  let differential = Verify.differential () in
  Verify.set_differential false;
  Fun.protect ~finally:(fun () -> Verify.set_differential differential) @@ fun () ->
  let g = Synthetic.org (Prng.create 123) ~teams:30 ~team_size:6 in
  let engine = Engine.create g in
  Engine.enable_compression ~atoms:Queries.atom_universe engine;
  Alcotest.(check bool) "compression pays on this graph" true (Engine.compression engine <> None);
  let patterns = Queries.workload (Prng.create 9) ~count:4 ~simulation:false g in
  List.iter (Engine.register engine) patterns;
  (* Non-total kernels all denote the empty M(Q,G). *)
  let answer_key p relation =
    ( Pattern.fingerprint p,
      if Match_relation.is_total relation then Match_relation.digest relation else "empty" )
  in
  (* The direct answer of every pattern on every epoch the writer will
     publish. *)
  let shadow = Digraph.copy g in
  let rng = Prng.create 77 in
  let batches = List.init 40 (fun _ -> Update.random_mixed rng shadow 3) in
  let valid = Hashtbl.create 256 in
  let record_epoch () =
    let snap = Snapshot.of_digraph shadow in
    List.iter (fun p -> Hashtbl.replace valid (answer_key p (Planner.run p snap)) ()) patterns
  in
  record_epoch ();
  List.iter
    (fun batch ->
      ignore (Update.apply_batch_filtered shadow batch : Update.t list);
      record_epoch ())
    batches;
  let plans = Telemetry.Metrics.counter "planner.plans"
  and containment = Telemetry.Metrics.counter "engine.containment_hits" in
  let plans_before = Telemetry.Counter.value plans
  and containment_before = Telemetry.Counter.value containment in
  let go = Atomic.make false and finished = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        List.iter
          (fun batch -> ignore (Engine.apply_updates engine batch : Incremental.report list))
          batches;
        Atomic.set finished true)
  in
  Atomic.set go true;
  let bad = ref 0 and rounds = ref 0 in
  while (not (Atomic.get finished)) && !rounds < 20_000 do
    incr rounds;
    List.iter
      (fun p ->
        let answer = Engine.evaluate engine p in
        if not (Hashtbl.mem valid (answer_key p answer.relation)) then incr bad)
      patterns
  done;
  Domain.join writer;
  Alcotest.(check int) "every answer matched some published epoch" 0 !bad;
  Alcotest.(check int) "no read ran the planner" plans_before (Telemetry.Counter.value plans);
  Alcotest.(check int) "no read took containment" containment_before
    (Telemetry.Counter.value containment)

(* --- request events under a concurrent writer ---------------------------- *)

(* Runs [f] with the query log pointed at a fresh temporary file and
   returns the events it logged. *)
let with_qlog f =
  let path = Filename.temp_file "expfinder-qlog" ".jsonl" in
  let previous = Telemetry.Qlog.sink () in
  Telemetry.Qlog.set_sink (Some path);
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Qlog.set_sink previous;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      f ();
      Telemetry.Qlog.close ();
      match Telemetry.Qlog.load path with
      | Ok events -> events
      | Error e -> Alcotest.failf "qlog: %s" e)

(* A writer domain streams update batches while a reader loops
   [evaluate] with the query log on.  Each query event must carry the
   epoch its answer was evaluated on: the direct answer on the event's
   (graph_id, epoch) digests to the event's digest.  The patterns are
   pairwise non-containing, so every read is a cache hit or a planner
   run on its pinned epoch, whose digest the planner reproduces. *)
let test_query_events_stamped_with_their_epoch () =
  let graph () = Synthetic.flat (Prng.create 41) ~n:300 ~avg_degree:4 in
  let g = graph () and shadow = graph () in
  let engine = Engine.create g in
  let rng = Prng.create 43 in
  let patterns =
    List.fold_left
      (fun kept p ->
        if
          List.exists
            (fun q ->
              Expfinder_pattern.Pattern_analysis.contains p q
              || Expfinder_pattern.Pattern_analysis.contains q p)
            kept
        then kept
        else p :: kept)
      []
      (Queries.workload rng ~count:6 ~simulation:false g)
  in
  Alcotest.(check bool) "at least three patterns" true (List.length patterns >= 3);
  let batches = List.init 200 (fun _ -> Update.random_mixed rng shadow 8) in
  (* The direct answer of every pattern on every epoch the writer will
     publish, keyed by (epoch, fingerprint). *)
  let direct = Hashtbl.create 256 in
  let record_epoch () =
    let snap = Snapshot.of_digraph shadow in
    List.iter
      (fun p ->
        Hashtbl.replace direct
          (Snapshot.epoch snap, Pattern.fingerprint p)
          (Match_relation.digest (Planner.run p snap)))
      patterns
  in
  record_epoch ();
  List.iter
    (fun batch ->
      ignore (Update.apply_batch_filtered shadow batch : Update.t list);
      record_epoch ())
    batches;
  let events =
    with_qlog (fun () ->
        let go = Atomic.make false and finished = Atomic.make false in
        let writer =
          Domain.spawn (fun () ->
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              List.iter
                (fun batch -> ignore (Engine.apply_updates engine batch : Incremental.report list))
                batches;
              Atomic.set finished true)
        in
        Atomic.set go true;
        let rounds = ref 0 in
        while (not (Atomic.get finished)) && !rounds < 20_000 do
          incr rounds;
          List.iter (fun p -> ignore (Engine.evaluate engine p : Engine.answer)) patterns
        done;
        Domain.join writer)
  in
  let queries = List.filter (fun e -> e.Telemetry.Qlog.kind = Telemetry.Qlog.Query) events in
  Alcotest.(check bool) "the reader logged queries" true (queries <> []);
  let misstamped =
    List.filter
      (fun (e : Telemetry.Qlog.event) ->
        e.graph_id <> Digraph.graph_id g
        || Hashtbl.find_opt direct (e.epoch, e.query) <> Some e.digest)
      queries
  in
  Alcotest.(check int)
    (Printf.sprintf "query events stamped with their epoch (of %d)" (List.length queries))
    0 (List.length misstamped)

(* Four domains apply small batches that toggle one shared set of edges,
   so the final graph depends on the order the batches were applied in.
   Replaying the logged updates on a fresh engine over the same base
   graph must reproduce the served graph: the log lists batches in
   apply order. *)
let test_apply_order_is_log_order () =
  let graph () = Synthetic.flat (Prng.create 17) ~n:40 ~avg_degree:2 in
  let engine = Engine.create (graph ()) in
  let shared = [| (0, 1); (1, 2); (2, 3); (3, 0); (4, 5) |] in
  let k = Array.length shared in
  let batch d i =
    let u, v = shared.((d + i) mod k) and u', v' = shared.((d + (3 * i) + 1) mod k) in
    [ Update.Insert_edge (u, v); Update.Delete_edge (u', v') ]
  in
  let per_domain = 250 in
  let events =
    with_qlog (fun () ->
        ignore
          (Parallel.run ~domains:4 (fun d ->
               for i = 0 to per_domain - 1 do
                 ignore (Engine.apply_updates engine (batch d i) : Incremental.report list)
               done)
            : unit array))
  in
  let updates = List.filter (fun e -> e.Telemetry.Qlog.kind = Telemetry.Qlog.Update) events in
  Alcotest.(check int) "every batch logged" (4 * per_domain) (List.length updates);
  (* Each event carries the epoch its batch published (a no-op batch
     the one it left in place), so in apply order the epochs never go
     back. *)
  let backwards, _ =
    List.fold_left
      (fun (n, prev) (e : Telemetry.Qlog.event) ->
        ((if e.epoch < prev then n + 1 else n), max prev e.epoch))
      (0, 0) updates
  in
  Alcotest.(check int) "logged epochs never go back" 0 backwards;
  let fresh = Engine.create (graph ()) in
  let summary = Expfinder_workload.Replay.run fresh updates in
  Alcotest.(check int) "every batch replayed" (4 * per_domain) summary.replayed;
  Alcotest.(check int) "no replay mismatch" 0 summary.mismatches;
  Alcotest.(check bool) "replay reproduces the served graph" true
    (Digraph.equal_structure (Engine.graph fresh) (Engine.graph engine))

(* --- per-domain trace roots -------------------------------------------- *)

let test_domain_local_trace_roots () =
  (* Two domains collect concurrently.  The open-span chain is
     Domain.DLS, so each root tree must contain exactly its own spans —
     no interleaving in the exported tree. *)
  let run tag =
    let ctx = Telemetry.Trace.make ~sampled:true () in
    Telemetry.Trace.collect ctx ("root-" ^ tag) (fun () ->
        for i = 1 to 40 do
          Telemetry.with_span
            (Printf.sprintf "child-%s-%d" tag i)
            (fun () -> ignore (Sys.opaque_identity i))
        done)
  in
  let other = Domain.spawn (fun () -> run "a") in
  let (), root_b = run "b" in
  let (), root_a = Domain.join other in
  let names = function
    | None -> Alcotest.fail "collect under a sampled ctx must return a root"
    | Some root -> Telemetry.Span.preorder_names root
  in
  let foreign tag l =
    List.filter
      (fun n -> not (String.starts_with ~prefix:("child-" ^ tag ^ "-") n))
      (List.tl l)
  in
  let names_a = names root_a and names_b = names root_b in
  Alcotest.(check int) "domain a kept all its spans" 41 (List.length names_a);
  Alcotest.(check int) "domain b kept all its spans" 41 (List.length names_b);
  Alcotest.(check (list string)) "no b-spans under a's root" [] (foreign "a" names_a);
  Alcotest.(check (list string)) "no a-spans under b's root" [] (foreign "b" names_b)

(* ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "parallel"
    [
      ( "primitives",
        [
          Alcotest.test_case "run joins in chunk order" `Quick test_run_join_order;
          Alcotest.test_case "run propagates chunk errors" `Quick
            test_run_propagates_exception;
          Alcotest.test_case "chan fifo/close" `Quick test_chan_fifo_and_close;
          Alcotest.test_case "chan capacity blocks" `Quick
            test_chan_bounded_blocks_until_popped;
          Alcotest.test_case "pool drains on shutdown" `Quick test_pool_runs_all_jobs;
          Alcotest.test_case "pool spawn failure joins workers" `Quick
            test_pool_spawn_failure_joins_workers;
          Alcotest.test_case "pool metrics move under contention" `Quick
            test_pool_metrics_under_contention;
        ] );
      ( "interleaving",
        [
          Alcotest.test_case "pinned snapshot stable under writer" `Quick
            test_pinned_snapshot_under_writer;
          Alcotest.test_case "engine readers during updates" `Quick
            test_concurrent_readers_during_updates;
          Alcotest.test_case "top_k during node inserts" `Quick
            test_top_k_during_node_inserts;
          Alcotest.test_case "per-domain trace roots" `Quick
            test_domain_local_trace_roots;
          Alcotest.test_case "register during updates" `Quick test_register_during_updates;
          Alcotest.test_case "registered reads during syncs" `Quick
            test_registered_reads_during_syncs;
          Alcotest.test_case "query events stamped with their epoch" `Quick
            test_query_events_stamped_with_their_epoch;
          Alcotest.test_case "apply order is log order" `Quick test_apply_order_is_log_order;
        ] );
    ]
