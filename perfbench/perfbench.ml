(* ExpFinder end-to-end benchmark (see README.md next to this file).

   Three closed-loop workloads, one client each, drive the engine
   through its public entry points:

   - [topk-cold]    Engine.top_k over distinct templated patterns;
   - [serve-hot]    Zipf-skewed repeats of a warmed 32-pattern pool over
                    the serve socket protocol;
   - [update-churn] 8-edge update batches, each followed by a read of
                    every registered query, with compression maintained.

   Every input comes from [--seed].  A run makes whole passes over one
   fixed op sequence for about [--seconds], each pass from the same start
   state, so the op mix does not change as the host speeds up or slows
   down.  The end-to-end latencies are taken from each op's fastest
   pass.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] runs one pass
   untraced, then replays it with telemetry on, times each layer from
   outside through its public functions, reads the program's counters,
   and prints the per-layer metrics.  Every answer is checked; a
   mismatch is a failed op and the run exits 1.  The last stdout line is
   one JSON object. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_compression
open Expfinder_storage
open Expfinder_engine
module Telemetry = Expfinder_telemetry
module Json = Telemetry.Json
module Metrics = Telemetry.Metrics
module Server = Expfinder_server
module Synthetic = Expfinder_workload.Synthetic
module Queries = Expfinder_workload.Queries
module Collab = Expfinder_workload.Collab

(* ------------------------------------------------------------------ *)
(* Clock, statistics, process memory                                    *)
(* ------------------------------------------------------------------ *)

(* Seconds on the monotonic clock, at nanosecond resolution (a
   gettimeofday float only resolves about 0.24 us today, too coarse for
   the microsecond layers). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [(f (), elapsed milliseconds)] *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

(* Linear interpolation between order statistics; 0 when empty. *)
let percentile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median values = percentile values 0.5

(* Harrell-Davis estimate of quantile [q]: every order statistic,
   weighted by the mass a Beta((n+1)q, (n+1)(1-q)) density puts on its
   slot ((i-1)/n, i/n], integrated by the midpoint rule.  A sample
   percentile reads one or two ops, so where the sorted costs have a gap
   it jumps with any op that moves; this estimate moves smoothly. *)
let hd_quantile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  let alpha = float_of_int (n + 1) *. q and beta = float_of_int (n + 1) *. (1.0 -. q) in
  let log_density x = ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)) in
  let peak = log_density ((alpha -. 1.0) /. (alpha +. beta -. 2.0)) in
  let sub = 64 in
  let num = ref 0.0 and den = ref 0.0 in
  for j = 0 to (n * sub) - 1 do
    let w = exp (log_density ((float_of_int j +. 0.5) /. float_of_int (n * sub)) -. peak) in
    num := !num +. (w *. a.(j / sub));
    den := !den +. w
  done;
  !num /. !den

(* Peak resident set ([VmHWM]) of a process, in MiB. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM not found"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Per-layer records and op tallies                                     *)
(* ------------------------------------------------------------------ *)

let layer_samples : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let layer_sums : (string, float ref) Hashtbl.t = Hashtbl.create 64

let sample key v =
  match Hashtbl.find_opt layer_samples key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace layer_samples key (ref [ v ])

let add key v =
  match Hashtbl.find_opt layer_sums key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace layer_sums key (ref v)

let samples_of key = match Hashtbl.find_opt layer_samples key with Some l -> !l | None -> []

let sum_of key = match Hashtbl.find_opt layer_sums key with Some r -> !r | None -> 0.0

(* Counter deltas of one engine call, accumulated as [ctr.<name>]. *)
let add_counters delta = List.iter (fun (name, v) -> add ("ctr." ^ name) (float_of_int v)) delta

let counted f =
  let before = Metrics.counters_snapshot () in
  let r, ms = timed f in
  (r, ms, Metrics.delta ~before ~after:(Metrics.counters_snapshot ()))

let delta_of delta name = Option.value ~default:0 (List.assoc_opt name delta)

type tally = { mutable attempted : int; mutable failed : int }

let tallies : (string * tally) list ref = ref []

let tally cls =
  match List.assoc_opt cls !tallies with
  | Some t -> t
  | None ->
    let t = { attempted = 0; failed = 0 } in
    tallies := !tallies @ [ (cls, t) ];
    t

let attempt cls =
  let t = tally cls in
  t.attempted <- t.attempted + 1

(* Mark one attempted op of [cls] failed; the first few reasons are
   printed. *)
let fail cls why =
  let t = tally cls in
  t.failed <- t.failed + 1;
  if t.failed <= 5 then Printf.printf "FAILED %s: %s\n%!" cls why

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                        *)
(* ------------------------------------------------------------------ *)

let rng seed salt = Prng.create ((seed * 1_000_003) + salt)

(* One fixed flat graph per size, its node ids and its edge insertion
   order (hence every adjacency order) permuted by the seed.  Graphs
   drawn afresh per seed moved the median top-K op by up to 45%, so the
   seed, not the program, would move the figures; an isomorphic copy
   costs the same work in another memory layout. *)
let graph_of ~seed ~n =
  let base = Synthetic.flat (rng 0 (17 * n)) ~n ~avg_degree:4 in
  let r = rng seed (17 * n) in
  let order = Array.init n Fun.id in
  Prng.shuffle r order;
  let g = Digraph.create ~capacity:n () and id = Array.make n 0 in
  Array.iter
    (fun v -> id.(v) <- Digraph.add_node g ~attrs:(Digraph.attrs base v) (Digraph.label base v))
    order;
  let edges = ref [] in
  Digraph.iter_edges base (fun u v -> edges := (id.(u), id.(v)) :: !edges);
  let edges = Array.of_list !edges in
  Prng.shuffle r edges;
  Array.iter (fun (u, v) -> ignore (Digraph.add_edge g u v)) edges;
  g

let thresholds =
  Array.of_list
    (List.filter_map
       (fun (a : Predicate.atom) -> match a.value with Attr.Int k -> Some k | _ -> None)
       Queries.atom_universe)

(* [next ()] yields the elements of [choices] in seed-shuffled rounds,
   each element once per round: a stream drawn this way has the same mix
   for every seed, only the order and the combinations differ. *)
let rounds r choices =
  let buf = Array.copy choices and i = ref (Array.length choices) in
  fun () ->
    if !i = Array.length buf then begin
      Prng.shuffle r buf;
      i := 0
    end;
    incr i;
    buf.(!i - 1)

(* The templated query family: the shape of the harness's fixed bench
   query (an SA exchanging work with an SD, the SD near a third role,
   the SA over a fourth within 3 hops) with each node's label and [exp]
   threshold drawn in rounds, thresholds inside the compression atom
   universe.  Random Queries.workload patterns range over five orders of
   magnitude of ranking cost; this family stays within about two and
   answers non-empty on the flat graphs used here.  Draws that repeat an
   earlier fingerprint, or one of [avoid], are skipped, so every pattern
   is distinct. *)
let family ?(avoid = [||]) r =
  let labels = Array.init 4 (fun _ -> rounds r Synthetic.fields) in
  let ks = Array.init 4 (fun _ -> rounds r thresholds) in
  let seen = Hashtbl.create 256 in
  Array.iter (fun p -> Hashtbl.replace seen (Pattern.fingerprint p) ()) avoid;
  let draw () =
    let spec i =
      let label = labels.(i) () in
      {
        Pattern.name = Printf.sprintf "%s%d" label i;
        label = Some (Label.of_string label);
        pred = Predicate.ge_int "exp" (ks.(i) ());
      }
    in
    let nodes = Array.init 4 spec in
    let b k = Pattern.Bounded k in
    Pattern.make_exn ~nodes ~edges:[ (0, 1, b 2); (1, 2, b 2); (0, 3, b 3); (1, 0, b 2) ] ~output:0
  in
  let rec next () =
    let p = draw () in
    let fp = Pattern.fingerprint p in
    if Hashtbl.mem seen fp then next ()
    else begin
      Hashtbl.add seen fp ();
      p
    end
  in
  fun count -> Array.init count (fun _ -> next ())

let pattern_texts ps = Array.to_list (Array.map Pattern_io.to_string ps)

let digest_texts texts = Digest.to_hex (Digest.string (String.concat "\n" texts))

(* Same seed, same stream; the next seed, another stream. *)
let check_stream ~seed texts_of =
  attempt "stream";
  let d = digest_texts (texts_of seed) in
  let same = digest_texts (texts_of seed) = d in
  let differs = digest_texts (texts_of (seed + 1)) <> d in
  Printf.printf "op stream digest %s (seed %d; regenerated: %s; seed %d: %s)\n%!" d seed
    (if same then "same" else "DIFFERENT")
    (seed + 1)
    (if differs then "different" else "SAME");
  if not (same && differs) then fail "stream" "op stream is not a function of the seed"

(* ------------------------------------------------------------------ *)
(* Correctness helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* The paper's Example 2 on the Fig. 1 network: Bob 9/5, then Walt 7/3. *)
let example2_gate () =
  attempt "example2";
  let e = Engine.create (Collab.graph ()) in
  let got =
    List.map
      (fun (x : Engine.expert) -> (x.node, x.rank.Ranking.num, x.rank.Ranking.den))
      (Engine.top_k e (Collab.query ()) ~k:2)
  in
  if got <> [ (Collab.bob, 9, 5); (Collab.walt, 7, 3) ] then
    fail "example2" "top-2 on Collab.graph is not Bob 9/5, Walt 7/3"

let topk_k = 10

let reference_topk p snap =
  let rel = Planner.run p snap in
  if not (Match_relation.is_total rel) then []
  else
    let gr = Result_graph.build p snap rel in
    Ranking.top_k gr ~output_matches:(Match_relation.matches rel (Pattern.output p)) ~k:topk_k

let experts_pairs experts = List.map (fun (x : Engine.expert) -> (x.node, x.rank)) experts

(* Two kernels denote the same answer: both empty (non-total), or equal. *)
let same_answer a b =
  match (Match_relation.is_total a, Match_relation.is_total b) with
  | false, false -> true
  | true, true -> Match_relation.equal a b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

(* Run [setup] [reps] times (tearing down all but the last) and return
   the last state with the median set-up time in seconds. *)
let repeated_setup ~reps ~teardown setup =
  let rec go i times last =
    if i = reps then (last, median times)
    else begin
      Option.iter teardown last;
      let st, ms = timed setup in
      go (i + 1) ((ms /. 1000.0) :: times) (Some st)
    end
  in
  let st, setup_s = go 0 [] None in
  Gc.compact ();
  (Option.get st, setup_s)

(* ------------------------------------------------------------------ *)
(* Server child and client                                              *)
(* ------------------------------------------------------------------ *)

(* Socket directories live in the working directory (the checkout), with
   relative paths so a long checkout path cannot overflow sun_path. *)
let tmp_root = ".perfbench_tmp"

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

type server = {
  pid : int;
  dir : string;
  conn : Unix.file_descr * in_channel;
  mutable running : bool;
}

let live_servers : server list ref = ref []

let servers_started = ref 0

let roundtrip (s : server) line =
  let fd, ic = s.conn in
  write_all fd (line ^ "\n");
  match In_channel.input_line ic with
  | Some l -> l
  | None -> failwith "server closed the connection"

(* Wait up to [grace] seconds for [pid] to exit, then kill it; always
   reaps. *)
let reap pid ~grace =
  let deadline = now () +. grace in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () < deadline then begin
        Unix.sleepf 0.005;
        poll ()
      end
      else begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  poll ()

let remove_dir dir =
  (try Sys.remove (Filename.concat dir "serve.sock") with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()

let shutdown_line = Json.to_string (Json.Obj [ ("op", Json.Str "shutdown") ])

let stop_server s =
  if s.running then begin
    s.running <- false;
    (try ignore (roundtrip s shutdown_line) with _ -> ());
    close_in_noerr (snd s.conn);
    reap s.pid ~grace:10.0;
    remove_dir s.dir;
    live_servers := List.filter (fun x -> x != s) !live_servers
  end

let () = at_exit (fun () -> List.iter stop_server !live_servers)

(* Fork a child that builds its engine with [make_engine] (returning a
   line of set-up timings) and serves it with one domain on a Unix
   socket in a fresh directory; return once it listens, with one client
   connection open.  The child never returns. *)
let start_server make_engine =
  (try Unix.mkdir tmp_root 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr servers_started;
  let dir = Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !servers_started) in
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "serve.sock" in
  let rd, wr = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let engine, timings = make_engine () in
        Server.serve ~domains:1
          ~on_listen:(fun () ->
            write_all wr (timings ^ "\n");
            Unix.close wr)
          engine (Server.Unix_socket sock);
        0
      with _ -> 2
    in
    Unix._exit code
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let abandon why =
      close_in_noerr ic;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid ~grace:0.0;
      remove_dir dir;
      failwith why
    in
    match Unix.select [ rd ] [] [] 120.0 with
    | [], _, _ -> abandon "server did not start within 120 s"
    | _ -> (
      match In_channel.input_line ic with
      | None -> abandon "server exited before listening"
      | Some timings ->
        close_in_noerr ic;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
        (try Unix.connect fd (Unix.ADDR_UNIX sock)
         with e ->
           Unix.close fd;
           abandon (Printexc.to_string e));
        let s =
          { pid; dir; conn = (fd, Unix.in_channel_of_descr fd); running = true }
        in
        live_servers := s :: !live_servers;
        (s, timings)))

let query_line p =
  Json.to_string
    (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str (Pattern_io.to_string p)) ])

type reply = { ok : bool; total : bool; digest : string; provenance : string }

let parse_reply line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j ->
    let field name f = Option.bind (Json.member name j) f in
    let bool = function Json.Bool b -> Some b | _ -> None in
    Ok
      {
        ok = field "ok" bool = Some true;
        total = field "total" bool = Some true;
        digest = Option.value ~default:"" (field "digest" Json.str_opt);
        provenance = Option.value ~default:"" (field "provenance" Json.str_opt);
      }

(* What a reply must say for a reference kernel: its total flag and, when
   total, its digest. *)
let expected_of rel =
  let total = Match_relation.is_total rel in
  (total, if total then Match_relation.digest rel else "")

let check_reply line (total, digest) =
  match parse_reply line with
  | Error e -> Error ("unparsable reply: " ^ e)
  | Ok r when not r.ok -> Error ("not ok: " ^ line)
  | Ok r when r.total <> total -> Error "total flag differs from direct evaluation"
  | Ok r when total && r.digest <> digest -> Error "digest differs from direct evaluation"
  | Ok r -> Ok r

(* ------------------------------------------------------------------ *)
(* Passes and workload results                                          *)
(* ------------------------------------------------------------------ *)

(* A run makes several passes over one op sequence, each from the same
   start state, so pass p's op i does the same work as every other
   pass's op i.  The host slows whole stretches of a run down (see
   README.md, Noise), so the end-to-end figures are taken from each op's
   fastest pass. *)
type result = {
  lat : float array array;  (** pass -> op -> latency of the main op, ms *)
  setup_s : float;  (** median over the run's set-ups *)
  rss_mb : float;
}

(* How many passes a run makes: at least [least], then more while one
   more pass, at the mean pass time so far, is expected to end within
   [seconds] of the first pass's start.  Every pass is the same op
   sequence, so stopping on time changes how often it is repeated, not
   the op mix. *)
type schedule = { least : int; seconds : float }

(* [pass p] for p = 0, 1, ... as [sched] allows; the results in order. *)
let run_passes sched pass =
  let t0 = now () in
  let rec go p acc =
    let elapsed = now () -. t0 in
    if p >= sched.least && elapsed *. float_of_int (p + 1) /. float_of_int p > sched.seconds then
      Array.of_list (List.rev acc)
    else go (p + 1) (pass p :: acc)
  in
  go 0 []

(* Each op's fastest pass. *)
let best_per_op r =
  Array.to_list (Array.init (Array.length r.lat.(0)) (fun i ->
      Array.fold_left (fun acc pass -> Float.min acc pass.(i)) infinity r.lat))

let all_latencies r = List.concat_map Array.to_list (Array.to_list r.lat)

(* In-process timed phases report the benchmark process's own peak. *)
let self_rss () = peak_rss_mb "self"

let record_setup ~traced key ms = if not traced then sample key (ms /. 1000.0)

(* The benchmark's own garbage (earlier passes, replies) is collected
   outside the timed phase, so every pass starts from the same heap. *)
let settle () = Gc.compact ()

(* ------------------------------------------------------------------ *)
(* topk-cold                                                            *)
(* ------------------------------------------------------------------ *)

let topk_n = 5_000

let topk_set = 50

(* The warm-up patterns and the timed set come from a fixed stream; the
   seed permutes the graph and draws the order of the set.  Top-K cost
   differs by two orders of magnitude between members of the family, so
   a seeded set of this size would let the seed, not the program, move
   the median. *)
let topk_stream ~seed =
  let fixed = family (rng 0 1) (4 + topk_set) in
  let set = Array.sub fixed 4 topk_set in
  Prng.shuffle (rng seed 1) set;
  (Array.sub fixed 0 4, set)

(* Candidates.compute on its own; the planner materialises candidates
   inside Planner.execute without bumping the candidates.* counters, so
   the kept/considered ratio is read around this call. *)
let candidates_part p snap =
  let _, ms, delta = counted (fun () -> Candidates.compute p snap) in
  add "cand.kept" (float_of_int (delta_of delta "candidates.kept"));
  add "cand.considered" (float_of_int (delta_of delta "candidates.considered"));
  ms

(* The calls Engine.top_k makes for a direct answer, timed one by one on
   the engine's pinned snapshot; returns the reference top-K list. *)
let topk_layers engine p ~whole_ms ~delta =
  let snap = Engine.snapshot engine in
  let plan, plan_ms = timed (fun () -> Planner.plan p snap) in
  let cand_ms = candidates_part p snap in
  let rel, exec_ms = timed (fun () -> Planner.execute plan p snap) in
  sample "plan_ms" plan_ms;
  sample "candidates_ms" cand_ms;
  sample "execute_ms" exec_ms;
  let reference, rank_part =
    if not (Match_relation.is_total rel) then ([], 0.0)
    else begin
      let gr, rg_ms = timed (fun () -> Result_graph.build p snap rel) in
      let output_matches = Match_relation.matches rel (Pattern.output p) in
      let top, rank_ms = timed (fun () -> Ranking.top_k gr ~output_matches ~k:topk_k) in
      let outm = List.length output_matches in
      sample "result_graph_ms" rg_ms;
      sample "result_graph.nodes" (float_of_int (Result_graph.node_count gr));
      sample "result_graph.edges" (float_of_int (Result_graph.edge_count gr));
      sample "rank_ms" rank_ms;
      sample "rank.output_matches" (float_of_int outm);
      add "rank.useful" (float_of_int (min topk_k outm));
      add "rank.computed" (float_of_int outm);
      (top, rg_ms +. rank_ms)
    end
  in
  if delta_of delta "engine.answers.direct" = 1 then
    sample "engine.glue_ms" (whole_ms -. plan_ms -. exec_ms -. rank_part);
  reference

let topk_setup ~seed ~traced warm () =
  let g, gen_ms = timed (fun () -> graph_of ~seed ~n:topk_n) in
  let engine, engine_ms = timed (fun () -> Engine.create g) in
  Array.iter (fun p -> ignore (Engine.top_k engine p ~k:topk_k)) warm;
  record_setup ~traced "setup.graph_gen_s" gen_ms;
  record_setup ~traced "setup.engine_s" engine_ms;
  engine

(* Each pass sets up a fresh engine, so every op misses the cache. *)
let run_topk ~seed ~sched ~traced =
  let warm, set = topk_stream ~seed in
  let m = Array.length set in
  let first = Array.make m [] and setups = ref [] in
  let lat =
    run_passes sched @@ fun pass ->
    settle ();
    let engine, setup_ms = timed (topk_setup ~seed ~traced warm) in
    setups := (setup_ms /. 1000.0) :: !setups;
    settle ();
    let lat = Array.make m 0.0 in
    Array.iteri
      (fun i p ->
        attempt "topk";
        match counted (fun () -> Engine.top_k engine p ~k:topk_k) with
        | experts, ms, delta ->
          lat.(i) <- ms;
          let got = experts_pairs experts in
          if pass = 0 then first.(i) <- got
          else if got <> first.(i) then fail "topk" "top-K differs between passes";
          if traced then begin
            add_counters delta;
            add "main_ops" 1.0;
            if got <> topk_layers engine p ~whole_ms:ms ~delta then
              fail "topk" "top-K differs from Planner.run -> Result_graph.build -> Ranking.top_k"
          end
        | exception e -> fail "topk" (Printexc.to_string e))
      set;
    lat
  in
  let rss_mb = self_rss () in
  if not traced then begin
    (* A seeded quarter of the answers against the direct pipeline on a
       fresh copy of the graph (the traced run checks every answer as it
       goes). *)
    let snap = Snapshot.of_digraph (graph_of ~seed ~n:topk_n) in
    let r = rng seed 2 and checked = ref 0 in
    Array.iteri
      (fun i p ->
        if Prng.int r 4 = 0 then begin
          incr checked;
          if first.(i) <> reference_topk p snap then
            fail "topk" "top-K differs from the direct pipeline"
        end)
      set;
    Printf.printf "topk-cold: %d of %d answers checked against the direct pipeline\n" !checked m
  end;
  { lat; setup_s = median !setups; rss_mb }

(* ------------------------------------------------------------------ *)
(* serve-hot                                                            *)
(* ------------------------------------------------------------------ *)

let serve_hot_n = 5_000

let hot_pool = 32

let hot_block = 1_000

(* The traced run replays each request in-process with the steps the
   server takes for a [query] line; returns the parsed pattern, the
   answer, the engine call's counter deltas and time, and the replay's
   total time.  Samples are recorded when [record] holds. *)
let replay_query ?(record = true) engine line =
  let req, dec_ms = timed (fun () -> Json.of_string line) in
  let text =
    match req with
    | Ok j -> Option.get (Option.bind (Json.member "pattern" j) Json.str_opt)
    | Error e -> failwith e
  in
  let p, parse_ms = timed (fun () -> Result.get_ok (Pattern_io.of_string text)) in
  let answer, eval_ms, delta = counted (fun () -> Engine.evaluate engine p) in
  let digest, digest_ms = timed (fun () -> Match_relation.digest answer.Engine.relation) in
  let _, enc_ms =
    timed (fun () ->
        Json.to_string
          (Json.Obj
             [
               ("ok", Json.Bool true);
               ("trace_id", Json.Str "00000000000000000000000000000000");
               ("pairs", Json.Int (Match_relation.total answer.relation));
               ("total", Json.Bool answer.total);
               ("provenance", Json.Str "direct");
               ("digest", Json.Str digest);
             ]))
  in
  if record then begin
    add_counters delta;
    sample "json_decode_us" (dec_ms *. 1000.0);
    sample "parse_us" (parse_ms *. 1000.0);
    sample "engine.evaluate_ms" eval_ms;
    sample "digest_ms" digest_ms;
    sample "json_encode_us" (enc_ms *. 1000.0)
  end;
  (p, answer, delta, eval_ms, dec_ms +. parse_ms +. eval_ms +. digest_ms +. enc_ms)

(* A block of Zipf (s = 1) picks over a fixed pool: a few patterns
   dominate, every one recurs.  The pool and the weights are fixed (the
   answer digest costs more for a larger answer, so a seeded pool would
   let the seed move the latency); the seed permutes the graph and
   draws the picks.  Each pass sends the same block. *)
let serve_hot_stream ~seed =
  let pool = family (rng 0 4) hot_pool in
  let r = rng seed 4 in
  let weights = Array.init hot_pool (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let pick () =
    let x = Prng.float r total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if x < acc || i = hot_pool - 1 then i else go (i + 1) acc
    in
    go 0 0.0
  in
  (pool, Array.init hot_block (fun _ -> pick ()))

(* Cache.find on a benchmark-owned cache holding the same relations as
   the engine's, for answers the engine served from its cache; returns
   its time. *)
let cache_part cache engine p delta =
  if delta_of delta "engine.answers.cache" <> 1 then None
  else begin
    let snapshot = Snapshot.id (Engine.snapshot engine) in
    if Cache.find cache p ~snapshot = None then
      Cache.store cache p ~snapshot (Engine.evaluate engine p).relation;
    let _, find_ms = timed (fun () -> Cache.find cache p ~snapshot) in
    sample "cache_find_us" (find_ms *. 1000.0);
    Some find_ms
  end

(* The pool is warmed twice over a forked one-domain server, then every
   pass sends the block on one connection.  The server keeps its state
   between passes: every answer is a cache hit in every pass. *)
let run_serve_hot ~seed ~sched ~traced =
  let pool, picks = serve_hot_stream ~seed in
  let pool_lines = Array.map query_line pool in
  let warm = Array.append pool_lines pool_lines in
  let setup () =
    let (server, timings), ready_ms =
      timed (fun () ->
          start_server (fun () ->
              let g, gen_ms = timed (fun () -> graph_of ~seed ~n:serve_hot_n) in
              let engine, engine_ms = timed (fun () -> Engine.create g) in
              (engine, Printf.sprintf "%.9f %.9f" gen_ms engine_ms)))
    in
    let gen_ms, engine_ms = Scanf.sscanf timings "%f %f" (fun a b -> (a, b)) in
    record_setup ~traced "setup.graph_gen_s" gen_ms;
    record_setup ~traced "setup.engine_s" engine_ms;
    record_setup ~traced "setup.server_ready_s" (ready_ms -. gen_ms -. engine_ms);
    Array.iter
      (fun line ->
        match parse_reply (roundtrip server line) with
        | Ok r when r.ok -> ()
        | _ -> failwith "warm-up query failed")
      warm;
    server
  in
  let server, setup_s =
    repeated_setup ~reps:(if traced then 1 else setup_reps) ~teardown:stop_server setup
  in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  (* The traced pass replays every request on an in-process engine over
     the same graph, warmed the same way. *)
  let local =
    if not traced then None
    else begin
      let engine = Engine.create (graph_of ~seed ~n:serve_hot_n) in
      Array.iter (fun line -> ignore (replay_query ~record:false engine line)) warm;
      Some (engine, Cache.create ~capacity:(2 * hot_pool) ())
    end
  in
  let replies = ref [] in
  let lat =
    run_passes sched @@ fun _ ->
    let lat = Array.make hot_block 0.0 and rs = Array.make hot_block "" in
    Array.iteri
      (fun i j ->
        attempt "query";
        match timed (fun () -> roundtrip server pool_lines.(j)) with
        | reply, ms -> (
          lat.(i) <- ms;
          rs.(i) <- reply;
          match local with
          | None -> ()
          | Some (engine, cache) -> (
            add "main_ops" 1.0;
            let p, _, delta, eval_ms, replay_ms = replay_query engine pool_lines.(j) in
            sample "server.overhead_ms" (ms -. replay_ms);
            match cache_part cache engine p delta with
            | Some part_ms -> sample "engine.glue_ms" (eval_ms -. part_ms)
            | None -> ()))
        | exception e -> fail "query" (Printexc.to_string e))
      picks;
    replies := rs :: !replies;
    lat
  in
  let rss_mb = peak_rss_mb (string_of_int server.pid) in
  stop_server server;
  (* Every reply against direct evaluation on a fresh copy of the graph. *)
  let snap = Snapshot.of_digraph (graph_of ~seed ~n:serve_hot_n) in
  let expected = Array.map (fun p -> expected_of (Planner.run p snap)) pool in
  let cached = ref 0 in
  List.iter
    (Array.iteri (fun i reply ->
         if reply <> "" then
           match check_reply reply expected.(picks.(i)) with
           | Error why -> fail "query" why
           | Ok r -> if r.provenance = "cache" then incr cached))
    !replies;
  Printf.printf "%d replies checked against direct evaluation; %d served from the cache\n"
    (Array.length lat * hot_block) !cached;
  { lat; setup_s; rss_mb }

(* ------------------------------------------------------------------ *)
(* update-churn                                                         *)
(* ------------------------------------------------------------------ *)

let churn_n = 3_000

let churn_registered = 4

let churn_batch = 8

let churn_warm = 2

let churn_steps = 100

(* The registered patterns and [churn_warm + churn_steps] batches of 4
   insertions and 4 deletions, each drawn against the graph as the
   earlier batches left it (so every update is effective); also returns
   that final graph.  The registered set is fixed: maintenance costs
   about the same per batch for one set of 4 queries and differs by a
   third between sets, so a seeded set would make the seed, not the
   program, move the update latency. *)
let churn_stream ~seed =
  let patterns = family (rng 0 5) churn_registered in
  let r = rng seed 5 in
  let g = graph_of ~seed ~n:churn_n in
  let batches =
    Array.init (churn_warm + churn_steps) (fun _ ->
        let batch = Update.random_mixed r g churn_batch in
        ignore (Update.apply_batch g batch);
        batch)
  in
  (patterns, batches, g)

let churn_texts ~seed =
  let patterns, batches, _ = churn_stream ~seed in
  pattern_texts patterns
  @ Array.to_list
      (Array.map
         (fun b -> String.concat ";" (List.map (Format.asprintf "%a" Update.pp) b))
         batches)

type shadow = {
  sg : Digraph.t;
  mutable snap : Snapshot.t;
  comp : Inc_compress.t;
  incs : Incremental.t list;
}

(* The calls Engine.apply_updates makes, on shadow structures fed the
   same batch; returns their summed time. *)
let shadow_step sh batch =
  let effective, apply_ms = timed (fun () -> Update.apply_batch_filtered sh.sg batch) in
  let next, advance_ms =
    timed (fun () ->
        let added, removed = Update.net_edge_changes sh.sg effective in
        Snapshot.advance sh.snap ~version:(Digraph.version sh.sg) ~added ~removed)
  in
  sh.snap <- next;
  let _, comp_ms =
    timed (fun () ->
        Inc_compress.sync sh.comp ~snapshot:next ~effective:(List.length effective) effective)
  in
  sample "graph.apply_ms" apply_ms;
  sample "graph.snapshot_advance_ms" advance_ms;
  sample "compression.sync_ms" comp_ms;
  List.fold_left
    (fun acc inc ->
      let report, ms = timed (fun () -> Incremental.sync_applied inc ~effective) in
      sample "incremental.sync_ms" ms;
      sample "incremental.area_nodes" (float_of_int report.Incremental.area);
      add "incremental.area" (float_of_int report.area);
      add "incremental.area_den" (float_of_int (Digraph.node_count sh.sg));
      acc +. ms)
    (apply_ms +. advance_ms +. comp_ms)
    sh.incs

let churn_setup ~seed ~traced patterns batches () =
  let g, gen_ms = timed (fun () -> graph_of ~seed ~n:churn_n) in
  let engine, engine_ms = timed (fun () -> Engine.create g) in
  let (), build_ms =
    timed (fun () -> Engine.enable_compression ~atoms:Queries.atom_universe engine)
  in
  let (), register_ms = timed (fun () -> Array.iter (Engine.register engine) patterns) in
  for b = 0 to churn_warm - 1 do
    ignore (Engine.apply_updates engine batches.(b));
    Array.iter (fun p -> ignore (Engine.evaluate engine p)) patterns
  done;
  record_setup ~traced "setup.graph_gen_s" gen_ms;
  record_setup ~traced "setup.engine_s" engine_ms;
  record_setup ~traced "compression.build_s" build_ms;
  record_setup ~traced "setup.register_s" register_ms;
  engine

(* The traced pass maintains shadow structures from the same
   post-warm-up graph. *)
let churn_shadow ~seed patterns batches =
  let sg = graph_of ~seed ~n:churn_n in
  for b = 0 to churn_warm - 1 do
    ignore (Update.apply_batch sg batches.(b))
  done;
  {
    sg;
    snap = Snapshot.of_digraph sg;
    comp = Inc_compress.create ~atoms:Queries.atom_universe sg;
    incs = Array.to_list (Array.map (fun p -> Incremental.create p sg) patterns);
  }

(* Each pass sets the engine up afresh and applies the same batches. *)
let run_churn ~seed ~sched ~traced =
  let patterns, batches, final = churn_stream ~seed in
  let references =
    let snap = Snapshot.of_digraph final in
    Array.map (fun p -> Planner.run p snap) patterns
  in
  let setups = ref [] in
  let lat =
    run_passes sched @@ fun _ ->
    settle ();
    let engine, setup_ms = timed (churn_setup ~seed ~traced patterns batches) in
    setups := (setup_ms /. 1000.0) :: !setups;
    let shadow = if traced then Some (churn_shadow ~seed patterns batches) else None in
    settle ();
    let reads = Array.make churn_registered None and lat = Array.make churn_steps 0.0 in
    for s = 0 to churn_steps - 1 do
      let batch = batches.(churn_warm + s) in
      attempt "update";
      (match counted (fun () -> Engine.apply_updates engine batch) with
      | reports, ms, delta ->
        lat.(s) <- ms;
        if
          List.length reports <> churn_registered
          || List.exists (fun (r : Incremental.report) -> r.effective <> churn_batch) reports
        then fail "update" "a registered query did not see all 8 effective updates";
        Option.iter
          (fun sh ->
            add_counters delta;
            add "main_ops" 1.0;
            sample "engine.update_glue_ms" (ms -. shadow_step sh batch))
          shadow
      | exception e -> fail "update" (Printexc.to_string e));
      Array.iteri
        (fun i p ->
          attempt "read";
          match counted (fun () -> Engine.evaluate engine p) with
          | answer, ms, delta ->
            reads.(i) <- Some answer.Engine.relation;
            if shadow = None then sample "engine.read_ms" ms
            else begin
              add_counters delta;
              sample "engine.evaluate_ms" ms
            end
          | exception e ->
            reads.(i) <- None;
            fail "read" (Printexc.to_string e))
        patterns
    done;
    (* The last reads and the shadow kernels against direct evaluation on
       the final graph, which must be the one the stream was drawn on. *)
    attempt "final";
    let ok =
      Digraph.equal_structure (Engine.graph engine) final
      && Array.for_all2
           (fun read reference ->
             match read with Some rel -> same_answer rel reference | None -> false)
           reads references
      &&
      match shadow with
      | None -> true
      | Some sh ->
        List.for_all2
          (fun inc reference -> same_answer (Incremental.kernel inc) reference)
          sh.incs (Array.to_list references)
    in
    if not ok then
      fail "final" "registered kernels differ from direct evaluation on the final graph";
    Option.iter
      (fun sh ->
        add "compression.node_ratio" (Compress.node_ratio (Inc_compress.current sh.comp)))
      shadow;
    lat
  in
  {
    lat;
    setup_s = median !setups;
    rss_mb = self_rss ();
  }

(* ------------------------------------------------------------------ *)
(* Workloads and metrics                                                *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  tail : float;  (** the tail percentile reported as [latency_tail_ms] *)
  texts : seed:int -> string list;  (** the op stream, for its digest *)
  run : seed:int -> sched:schedule -> traced:bool -> result;
}

let workloads =
  [
    {
      name = "topk-cold";
      tail = 0.80;
      texts =
        (fun ~seed ->
          let warm, set = topk_stream ~seed in
          pattern_texts warm @ pattern_texts set);
      run = run_topk;
    };
    {
      name = "serve-hot";
      tail = 0.99;
      texts =
        (fun ~seed ->
          let pool, picks = serve_hot_stream ~seed in
          pattern_texts pool @ Array.to_list (Array.map string_of_int picks));
      run = run_serve_hot;
    };
    {
      name = "update-churn";
      tail = 0.90;
      texts = churn_texts;
      run = run_churn;
    };
  ]

let p key q () = percentile (samples_of key) q

let total keys = List.fold_left (fun acc k -> acc +. sum_of k) 0.0 keys

let share num dens () =
  let d = total dens in
  if d = 0.0 then 0.0 else sum_of num /. d

let per_op keys () =
  let d = sum_of "main_ops" in
  if d = 0.0 then 0.0 else total keys /. d

(* Every per-layer metric, on every workload; a layer the workload does
   not exercise reads 0. *)
let per_layer =
  [
    ("core.rank_ms_p50", "ms", p "rank_ms" 0.5);
    ("core.rank_ms_p90", "ms", p "rank_ms" 0.9);
    ("core.ranking.output_matches_p50", "count", p "rank.output_matches" 0.5);
    ("core.ranking.useful_ratio", "ratio", share "rank.useful" [ "rank.computed" ]);
    ("core.result_graph_ms_p50", "ms", p "result_graph_ms" 0.5);
    ("core.result_graph.nodes_p50", "count", p "result_graph.nodes" 0.5);
    ("core.result_graph.edges_p50", "count", p "result_graph.edges" 0.5);
    ("core.plan_ms_p50", "ms", p "plan_ms" 0.5);
    ("core.candidates_ms_p50", "ms", p "candidates_ms" 0.5);
    ("core.execute_ms_p50", "ms", p "execute_ms" 0.5);
    ("core.execute_ms_p95", "ms", p "execute_ms" 0.95);
    ( "core.candidates.kept_ratio",
      "ratio",
      share "cand.kept" [ "cand.considered" ] );
    ( "core.refine.worklist_pops",
      "count",
      per_op [ "ctr.sim.worklist_pops"; "ctr.bsim.worklist_pops"; "ctr.sparse.worklist_pops" ] );
    ( "core.refine.ball_expansions",
      "count",
      per_op [ "ctr.bsim.ball_expansions"; "ctr.sparse.ball_expansions" ] );
    ( "core.refine.removals",
      "count",
      per_op [ "ctr.sim.removals"; "ctr.bsim.removals"; "ctr.sparse.removals" ] );
    ("core.planner.misestimate", "count", per_op [ "ctr.planner.misestimate" ]);
    ("server.overhead_ms_p50", "ms", p "server.overhead_ms" 0.5);
    ("server.json_decode_us_p50", "us", p "json_decode_us" 0.5);
    ("server.json_encode_us_p50", "us", p "json_encode_us" 0.5);
    ("pattern.parse_us_p50", "us", p "parse_us" 0.5);
    ("core.digest_ms_p50", "ms", p "digest_ms" 0.5);
    ("storage.cache_find_us_p50", "us", p "cache_find_us" 0.5);
    ("storage.cache_hit_ratio", "ratio", share "ctr.cache.hits" [ "ctr.cache.hits"; "ctr.cache.misses" ]);
    ("engine.evaluate_ms_p50", "ms", p "engine.evaluate_ms" 0.5);
    ("engine.glue_ms_p50", "ms", p "engine.glue_ms" 0.5);
    ("engine.update_glue_ms_p50", "ms", p "engine.update_glue_ms" 0.5);
    ("engine.read_ms_p50", "ms", p "engine.read_ms" 0.5);
    ("engine.read_ms_p90", "ms", p "engine.read_ms" 0.9);
    ("engine.answers.cache_share", "ratio", share "ctr.engine.answers.cache" [ "ctr.engine.queries" ]);
    ("engine.answers.direct_share", "ratio", share "ctr.engine.answers.direct" [ "ctr.engine.queries" ]);
    ("incremental.sync_ms_p50", "ms", p "incremental.sync_ms" 0.5);
    ("incremental.area_nodes_p50", "count", p "incremental.area_nodes" 0.5);
    ("incremental.area_ratio", "ratio", share "incremental.area" [ "incremental.area_den" ]);
    ("incremental.rounds", "count", per_op [ "ctr.incremental.rounds" ]);
    ("incremental.floods", "count", per_op [ "ctr.incremental.floods" ]);
    ("compression.sync_ms_p50", "ms", p "compression.sync_ms" 0.5);
    ("compression.node_ratio", "ratio", fun () -> sum_of "compression.node_ratio");
    ("compression.build_s", "s", p "compression.build_s" 0.5);
    ("graph.apply_ms_p50", "ms", p "graph.apply_ms" 0.5);
    ("graph.snapshot_advance_ms_p50", "ms", p "graph.snapshot_advance_ms" 0.5);
    ( "graph.advance_share",
      "ratio",
      share "ctr.engine.snapshot_advances"
        [ "ctr.engine.snapshot_advances"; "ctr.engine.snapshot_rebuilds" ] );
    ("setup.graph_gen_s", "s", p "setup.graph_gen_s" 0.5);
    ("setup.engine_s", "s", p "setup.engine_s" 0.5);
    ("setup.register_s", "s", p "setup.register_s" 0.5);
    ("setup.server_ready_s", "s", p "setup.server_ready_s" 0.5);
    ("trace.overhead_pct", "%", fun () -> sum_of "trace.overhead_pct");
  ]

let end_to_end (w : workload) (r : result) =
  let best = best_per_op r in
  [
    ("latency_p50_ms", "ms", hd_quantile best 0.5);
    ("latency_tail_ms", "ms", hd_quantile best w.tail);
    ("latency_mean_ms", "ms", List.fold_left ( +. ) 0.0 best /. float_of_int (List.length best));
    ("setup_s", "s", r.setup_s);
    ("peak_rss_mb", "MB", r.rss_mb);
  ]

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload; " ^ usage);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = !seed and traced = !trace = 1 in
  (* At least 3 passes, so each op's fastest pass is a minimum over
     several.  The traced run makes one untraced and one traced pass, the
     latter with layer replays between ops. *)
  let sched =
    if traced then { least = 1; seconds = 0.0 } else { least = 3; seconds = float_of_int !seconds }
  in
  Printf.printf "workload %s: seed %d, tail p%.0f\n%!" w.name seed (100.0 *. w.tail);
  example2_gate ();
  check_stream ~seed (fun seed -> w.texts ~seed);
  let untraced = w.run ~seed ~sched ~traced:false in
  Printf.printf "%d passes\n" (Array.length untraced.lat);
  let metrics =
    if not traced then end_to_end w untraced
    else begin
      Telemetry.set_enabled true;
      let traced_r = w.run ~seed ~sched ~traced:true in
      let u = median (all_latencies untraced) and t = median (all_latencies traced_r) in
      add "trace.overhead_pct" (100.0 *. (t -. u) /. u);
      List.map (fun (name, unit, f) -> (name, unit, f ())) per_layer
    end
  in
  let attempted = List.fold_left (fun acc (_, t) -> acc + t.attempted) 0 !tallies in
  let failed = List.fold_left (fun acc (_, t) -> acc + t.failed) 0 !tallies in
  List.iter
    (fun (cls, t) ->
      Printf.printf "ops %-8s attempted %6d  ok %6d  failed %d\n" cls t.attempted
        (t.attempted - t.failed) t.failed)
    !tallies;
  List.iter (fun (name, unit, v) -> Printf.printf "%-34s %14.6f %s\n" name v unit) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]));
  if failed > 0 then exit 1
