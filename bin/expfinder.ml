(* ExpFinder command-line front-end.

   The demo paper drives everything through a GUI; this CLI exposes the
   same actions as subcommands: generate/manage data graphs, run pattern
   queries, select top-K experts, compress graphs, apply updates, and
   walk through the paper's Fig. 1 example.  DOT output substitutes the
   result-graph visualisation. *)

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
module Replay = Expfinder_workload.Replay

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* --- shared loading helpers --------------------------------------------- *)

let load_graph path =
  match Graph_io.load path with
  | Ok g -> Ok g
  | Error e -> err "cannot load graph %s: %s" path e

let load_pattern path =
  match Pattern_io.load path with
  | Ok p -> Ok p
  | Error e -> err "cannot load pattern %s: %s" path e

let parse_atom_list text =
  if text = "" then Ok []
  else
    let rec loop acc = function
      | [] -> Ok (List.rev acc)
      | token :: rest -> (
        (* Reuse the pattern-file condition syntax, e.g. exp>=5. *)
        match Pattern_io.of_string
                (Printf.sprintf "expfinder-pattern 1\nnode 0 x * %s\noutput 0\n" token)
        with
        | Ok p -> (
          match Predicate.atoms (Pattern.node_spec p 0).Pattern.pred with
          | [ atom ] -> loop (atom :: acc) rest
          | _ -> err "bad condition %S" token)
        | Error e -> err "bad condition %S: %s" token e)
    in
    loop [] (String.split_on_char ',' text)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* Span recording must be on before the engine runs the query, and the
   profile must be grabbed right after the primary call: later
   result-graph re-evaluations hit the cache and would replace it. *)
let setup_telemetry ~profile ~trace = if profile || trace <> None then Telemetry.set_enabled true

let emit_profile ~profile ~trace = function
  | None -> ()
  | Some p ->
    if profile then Format.printf "%a" Engine.pp_profile p;
    (match trace with
    | None -> ()
    | Some path ->
      (* Requests that ran under an explicit trace context export on
         their own pid lane; ambient single-query runs keep the
         historical single-lane output byte for byte. *)
      let trace_id = if p.Engine.trace_id = "" then None else Some p.Engine.trace_id in
      write_file path (Telemetry.Span.to_chrome_json ?trace_id p.Engine.span);
      Printf.printf "chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n"
        path)

let or_die = function
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "expfinder: %s\n" e;
    1

(* --- gen ------------------------------------------------------------------ *)

let gen verbose kind n avg_degree teams team_size seed output =
  setup_logs verbose;
  or_die
    (let rng = Prng.create seed in
     let* g =
       match kind with
       | "flat" -> Ok (Synthetic.flat rng ~n ~avg_degree)
       | "org" -> Ok (Synthetic.org rng ~teams ~team_size)
       | "twitter" -> Ok (Twitter.generate rng ~n)
       | "collab" -> Ok (Collab.graph ())
       | other -> err "unknown dataset kind %S (flat|org|twitter|collab)" other
     in
     Graph_io.save g output;
     Printf.printf "wrote %s: %d nodes, %d edges\n" output (Digraph.node_count g)
       (Digraph.edge_count g);
     Ok ())

(* --- import ------------------------------------------------------------------ *)

let import verbose edges_file label exp_max seed output =
  setup_logs verbose;
  or_die
    (let rng = Prng.create seed in
     let node_label = Label.of_string label in
     let node_init _ =
       ( node_label,
         if exp_max > 0 then Attrs.of_list [ Attrs.int "exp" (Prng.int rng (exp_max + 1)) ]
         else Attrs.empty )
     in
     let* g =
       match Graph_io.load_edge_list ~node_init edges_file with
       | Ok g -> Ok g
       | Error e -> err "cannot import %s: %s" edges_file e
     in
     Graph_io.save g output;
     Printf.printf "imported %s: %d nodes, %d edges -> %s\n" edges_file
       (Digraph.node_count g) (Digraph.edge_count g) output;
     Ok ())

(* --- stats ------------------------------------------------------------------ *)

(* One-shot HTTP fetch with every transport failure folded into the
   result: [sockaddr] raises [Failure] on unresolvable hosts, which
   would otherwise escape as an uncaught exception. *)
let http_get_result spec endpoint path =
  match Server.http_get endpoint path with
  | Ok r -> Ok r
  | Error e -> err "cannot reach %s: %s" spec e
  | exception Unix.Unix_error (e, fn, _) ->
    err "cannot reach %s: %s: %s" spec fn (Unix.error_message e)
  | exception Failure msg -> err "cannot reach %s: %s" spec msg

let stats verbose graph_file query_file json recent =
  setup_logs verbose;
  or_die
    (let* g = load_graph graph_file in
     let csr = Csr.of_digraph g in
     Format.printf "%a@." Digraph.pp_stats g;
     let labels = Queries.distinct_labels g in
     Printf.printf "labels: %s\n"
       (String.concat ", "
          (Array.to_list (Array.map (fun l -> Label.to_string l) labels)));
     let scc = Scc.compute csr in
     Printf.printf "strongly connected components: %d\n" (Scc.count scc);
     let* () =
       match query_file with
       | None -> Ok ()
       | Some qf ->
         (* Run one traced evaluation and dump the metric registry plus
            the per-query profile. *)
         let* q = load_pattern qf in
         Telemetry.set_enabled true;
         Telemetry.Metrics.reset_all ();
         let engine = Engine.create g in
         let answer = Engine.evaluate engine q in
         Printf.printf "\nquery %s: %d match pairs\n"
           (Pattern.fingerprint q)
           (Match_relation.total answer.Engine.relation);
         if not json then begin
           Format.printf "@.metrics:@.%a@." Telemetry.Metrics.pp ();
           Option.iter (Format.printf "%a" Engine.pp_profile) answer.Engine.profile
         end;
         Ok ()
     in
     (* Machine-readable dump, whether or not a query ran: one combined
        document, so consumers get the registry and the flight recorder
        in a single parse. *)
     if json then
       print_string
         (Telemetry.Json.to_string ~pretty:true
            (Telemetry.Json.Obj
               [
                 ("metrics", Telemetry.Metrics.to_json ());
                 ("recorder", Telemetry.Recorder.to_json ());
               ]));
     if recent && not json then Format.printf "%a" Telemetry.Recorder.pp ();
     Ok ())

(* --- analyze ------------------------------------------------------------------ *)

let analyze verbose pattern_file explain_containment =
  setup_logs verbose;
  or_die
    (let* q = load_pattern pattern_file in
     let diags = Pattern_analysis.analyze q in
     if diags = [] then
       Printf.printf "no diagnostics: %d nodes, %d edges, all satisfiable and connected\n"
         (Pattern.size q) (Pattern.edge_count q)
     else
       List.iter (fun d -> Format.printf "%a@." (Pattern_analysis.pp_diagnostic q) d) diags;
     if Pattern_analysis.statically_empty q then
       print_endline
         "M(Q,G) is empty on every data graph; the planner answers this query without \
          evaluation";
     (match explain_containment with
     | None -> Ok ()
     | Some other_file ->
       let* q2 = load_pattern other_file in
       Printf.printf "contains(this, other): %b\ncontains(other, this): %b\n"
         (Pattern_analysis.contains q q2) (Pattern_analysis.contains q2 q);
       Ok ()))

(* --- explain ------------------------------------------------------------------ *)

let explain_query verbose graph_file pattern_file analyze =
  setup_logs verbose;
  or_die
    (let* g = load_graph graph_file in
     let* q = load_pattern pattern_file in
     let engine = Engine.create g in
     print_string
       (if analyze then Engine.explain_analyze engine q else Engine.explain engine q);
     Ok ())

(* --- bench-diff --------------------------------------------------------------- *)

let bench_diff verbose old_file new_file threshold =
  setup_logs verbose;
  or_die
    (let load path =
       match Telemetry.Report.load path with
       | Ok r -> Ok r
       | Error e -> err "cannot load report %s: %s" path e
     in
     let* baseline = load old_file in
     let* candidate = load new_file in
     let comparisons = Telemetry.Report.diff ~threshold ~baseline ~candidate () in
     Format.printf "%a@." Telemetry.Report.pp_diff comparisons;
     if Telemetry.Report.has_regression comparisons then
       err "performance regression vs %s (threshold +%.0f%%)" old_file (100.0 *. threshold)
     else Ok ())

(* --- query ------------------------------------------------------------------ *)

let print_matches q m =
  if not (Match_relation.is_total m) then print_endline "no match (M(Q,G) is empty)"
  else
    for u = 0 to Pattern.size q - 1 do
      Printf.printf "%s -> [%s]\n" (Pattern.name q u)
        (String.concat "; " (List.map string_of_int (Match_relation.matches m u)))
    done

let query verbose graph_file pattern_file dot_output summary drill explain profile trace check =
  setup_logs verbose;
  setup_telemetry ~profile ~trace;
  if check then Verify.set_differential true;
  or_die
    (let* g = load_graph graph_file in
     let* q = load_pattern pattern_file in
     let engine = Engine.create g in
     if explain then print_string (Engine.explain engine q);
     let answer = Engine.evaluate engine q in
     print_matches q answer.Engine.relation;
     emit_profile ~profile ~trace answer.Engine.profile;
     let result_graph = lazy (Engine.result_graph engine q) in
     if summary then begin
       (* Roll-up: the global structure of the result graph. *)
       let gr = Lazy.force result_graph in
       Format.printf "%a@." (Result_graph.pp_summary q) (Result_graph.roll_up q gr)
     end;
     let* () =
       match drill with
       | None -> Ok ()
       | Some name -> (
         (* Drill-down: per-match detail for one pattern node. *)
         match Pattern.pnode_of_name q name with
         | None -> err "no pattern node named %S" name
         | Some u ->
           let gr = Lazy.force result_graph in
           List.iter
             (fun d -> Format.printf "%a@." Result_graph.pp_detail d)
             (Result_graph.drill_down q (Engine.snapshot engine) gr u);
           Ok ())
     in
     (match dot_output with
     | None -> ()
     | Some path ->
       let gr = Lazy.force result_graph in
       write_file path (Result_graph.to_dot q (Engine.snapshot engine) gr);
       Printf.printf "result graph written to %s\n" path);
     Ok ())

(* --- topk ------------------------------------------------------------------ *)

let topk verbose graph_file pattern_file k dot_output profile trace check =
  setup_logs verbose;
  setup_telemetry ~profile ~trace;
  if check then Verify.set_differential true;
  or_die
    (let* g = load_graph graph_file in
     let* q = load_pattern pattern_file in
     let engine = Engine.create g in
     let experts = Engine.top_k engine q ~k in
     let topk_profile = Engine.last_profile engine in
     if experts = [] then print_endline "no experts found"
     else
       List.iteri
         (fun i { Engine.node; name; rank } ->
           Printf.printf "#%d: node %d%s  rank %s\n" (i + 1) node
             (match name with Some n -> Printf.sprintf " (%s)" n | None -> "")
             (Format.asprintf "%a" Ranking.pp_rank rank))
         experts;
     (match (dot_output, experts) with
     | Some path, { Engine.node = best; _ } :: _ ->
       let gr = Engine.result_graph engine q in
       write_file path (Result_graph.to_dot ~highlight:[ best ] q (Engine.snapshot engine) gr);
       Printf.printf "result graph (top-1 highlighted) written to %s\n" path
     | Some path, [] ->
       let gr = Engine.result_graph engine q in
       write_file path (Result_graph.to_dot q (Engine.snapshot engine) gr)
     | None, _ -> ());
     emit_profile ~profile ~trace topk_profile;
     Ok ())

(* --- batch ------------------------------------------------------------------ *)

(* A batch file either inlines patterns — stanzas each starting with the
   usual "expfinder-pattern" header line — or, when no header appears,
   lists one pattern file path per line (# comments and blanks
   ignored). *)
let load_batch path =
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines = String.split_on_char '\n' contents in
  let is_header l =
    String.length l >= 17 && String.equal (String.sub l 0 17) "expfinder-pattern"
  in
  let parse_stanzas () =
    let stanzas =
      List.fold_left
        (fun acc line ->
          if is_header line then [ line ] :: acc
          else match acc with [] -> acc | s :: rest -> (line :: s) :: rest)
        [] lines
      |> List.rev_map (fun s -> String.concat "\n" (List.rev s))
    in
    List.fold_left
      (fun acc text ->
        let* qs = acc in
        match Pattern_io.of_string text with
        | Ok q -> Ok (q :: qs)
        | Error e -> err "bad pattern stanza in %s: %s" path e)
      (Ok []) stanzas
    |> Result.map List.rev
  in
  let parse_file_list () =
    List.fold_left
      (fun acc line ->
        let* qs = acc in
        let line = String.trim line in
        if line = "" || line.[0] = '#' then Ok qs
        else
          let* q = load_pattern line in
          Ok (q :: qs))
      (Ok []) lines
    |> Result.map List.rev
  in
  let* qs = if List.exists is_header lines then parse_stanzas () else parse_file_list () in
  if qs = [] then err "batch file %s holds no patterns" path else Ok qs

let batch verbose graph_file batch_file profile trace check =
  setup_logs verbose;
  setup_telemetry ~profile ~trace;
  if check then Verify.set_differential true;
  or_die
    (let* g = load_graph graph_file in
     let* qs = load_batch batch_file in
     let engine = Engine.create g in
     let answers = Engine.evaluate_batch engine qs in
     List.iteri
       (fun i (q, a) ->
         let via =
           match a.Engine.provenance with
           | Engine.From_cache -> "cache"
           | Engine.From_compressed -> "compressed"
           | Engine.Direct -> "direct"
         in
         Printf.printf "[%d] %s: %s (via %s)\n" i (Pattern.fingerprint q)
           (if a.Engine.total then
              Printf.sprintf "%d match pairs" (Match_relation.total a.Engine.relation)
            else "no match")
           via)
       (List.combine qs answers);
     emit_profile ~profile ~trace (Engine.last_profile engine);
     Ok ())

(* --- compress ------------------------------------------------------------- *)

let compress_cmd verbose graph_file atoms_text output =
  setup_logs verbose;
  or_die
    (let* g = load_graph graph_file in
     let* atoms = parse_atom_list atoms_text in
     let snap = Snapshot.of_digraph g in
     let compressed = Compress.compress ~atoms snap in
     Printf.printf "original:   %d nodes, %d edges\n" (Snapshot.node_count snap)
       (Snapshot.edge_count snap);
     Printf.printf "compressed: %d nodes, %d edges\n"
       (Snapshot.node_count (Compress.compressed compressed))
       (Snapshot.edge_count (Compress.compressed compressed));
     Printf.printf "reduction:  %.1f%% nodes, %.1f%% edges\n"
       (100.0 *. Compress.node_ratio compressed)
       (100.0 *. Compress.edge_ratio compressed);
     (match output with
     | None -> ()
     | Some path ->
       Graph_io.save (Snapshot.to_digraph (Compress.compressed compressed)) path;
       Printf.printf "compressed graph written to %s\n" path);
     Ok ())

(* --- update ----------------------------------------------------------------- *)

let parse_edge text =
  match String.split_on_char ',' text with
  | [ u; v ] -> (
    match (int_of_string_opt u, int_of_string_opt v) with
    | Some u, Some v -> Ok (u, v)
    | _ -> err "bad edge %S (expected u,v)" text)
  | _ -> err "bad edge %S (expected u,v)" text

let update verbose graph_file inserts deletes pattern_file output =
  setup_logs verbose;
  or_die
    (let* g = load_graph graph_file in
     let* ins =
       List.fold_left
         (fun acc t -> Result.bind acc (fun l -> Result.map (fun e -> e :: l) (parse_edge t)))
         (Ok []) inserts
     in
     let* del =
       List.fold_left
         (fun acc t -> Result.bind acc (fun l -> Result.map (fun e -> e :: l) (parse_edge t)))
         (Ok []) deletes
     in
     let updates =
       List.map (fun (u, v) -> Update.Delete_edge (u, v)) (List.rev del)
       @ List.map (fun (u, v) -> Update.Insert_edge (u, v)) (List.rev ins)
     in
     let* () =
       match pattern_file with
       | None ->
         let effective = Update.apply_batch g updates in
         Printf.printf "applied %d/%d updates\n" effective (List.length updates);
         Ok ()
       | Some pf ->
         let* q = load_pattern pf in
         let inc = Incremental.create q g in
         let report = Incremental.apply_updates inc g updates in
         Printf.printf "applied %d/%d updates; affected area: %d nodes\n"
           report.Incremental.effective (List.length updates) report.Incremental.area;
         let show tag pairs =
           List.iter
             (fun (u, v) -> Printf.printf "%s (%s, %d)\n" tag (Pattern.name q u) v)
             pairs
         in
         show "+" report.Incremental.added;
         show "-" report.Incremental.removed;
         Ok ()
     in
     (match output with
     | None -> ()
     | Some path ->
       Graph_io.save g path;
       Printf.printf "updated graph written to %s\n" path);
     Ok ())

(* --- serve / client / replay -------------------------------------------------- *)

let serve_run verbose graph_file socket_spec max_connections =
  setup_logs verbose;
  or_die
    (let* g = load_graph graph_file in
     let* endpoint = Server.endpoint_of_string socket_spec in
     let engine = Engine.create g in
     let max_connections = if max_connections <= 0 then max_int else max_connections in
     (* SIGPIPE would kill the server when a client disconnects mid-write;
        the write errors are handled per-connection instead. *)
     (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
     (* Long-horizon telemetry: GC pause attribution via the runtime's
        own event ring, best-effort (false when the ring cannot be
        opened).  It stays inert for every other subcommand. *)
     ignore (Telemetry.Gcpause.start () : bool);
     (* A fatal signal leaves a postmortem artifact when
        EXPFINDER_POSTMORTEM_DIR is set, then exits through [Stdlib.exit]
        with the default disposition's code (128 + signo): only a normal
        exit lets the runtime unlink the <pid>.events ring that
        [Gcpause.start] created in the working directory. *)
     let on_signal signo name =
       Sys.Signal_handle
         (fun _ ->
           ignore (Telemetry.Postmortem.write ~reason:("signal " ^ name) () : string option);
           Stdlib.exit (128 + signo))
     in
     (try Sys.set_signal Sys.sigterm (on_signal 15 "SIGTERM") with Invalid_argument _ -> ());
     (try Sys.set_signal Sys.sigint (on_signal 2 "SIGINT") with Invalid_argument _ -> ());
     match
       Server.serve ~max_connections
         ~on_listen:(fun () ->
           Printf.printf "serving %s on %s\n%!" graph_file (Server.endpoint_to_string endpoint))
         engine endpoint
     with
     | () ->
       Telemetry.Qlog.close ();
       Ok ()
     | exception Unix.Unix_error (e, fn, _) -> err "serve: %s: %s" fn (Unix.error_message e)
     | exception Failure msg -> err "serve: %s" msg)

let client_run verbose socket_spec ping query_files batch_file inserts deletes repeat shutdown
    trace concurrency =
  setup_logs verbose;
  or_die
    (let* endpoint = Server.endpoint_of_string socket_spec in
     let* queries =
       List.fold_left
         (fun acc qf ->
           let* l = acc in
           let* q = load_pattern qf in
           Ok
             (Telemetry.Json.Obj
                [
                  ("op", Telemetry.Json.Str "query");
                  ("pattern", Telemetry.Json.Str (Pattern_io.to_string q));
                ]
             :: l))
         (Ok []) query_files
       |> Result.map List.rev
     in
     let* batch_req =
       match batch_file with
       | None -> Ok []
       | Some bf ->
         let* qs = load_batch bf in
         Ok
           [
             Telemetry.Json.Obj
               [
                 ("op", Telemetry.Json.Str "batch");
                 ( "patterns",
                   Telemetry.Json.Arr
                     (List.map (fun q -> Telemetry.Json.Str (Pattern_io.to_string q)) qs) );
               ];
           ]
     in
     let* update_req =
       let* del =
         List.fold_left
           (fun acc t -> Result.bind acc (fun l -> Result.map (fun e -> e :: l) (parse_edge t)))
           (Ok []) deletes
       in
       let* ins =
         List.fold_left
           (fun acc t -> Result.bind acc (fun l -> Result.map (fun e -> e :: l) (parse_edge t)))
           (Ok []) inserts
       in
       let ops =
         List.map (fun (u, v) -> Update.Delete_edge (u, v)) (List.rev del)
         @ List.map (fun (u, v) -> Update.Insert_edge (u, v)) (List.rev ins)
       in
       if ops = [] then Ok []
       else
         Ok
           [
             Telemetry.Json.Obj
               [
                 ("op", Telemetry.Json.Str "update");
                 ("ops", Telemetry.Json.Arr (List.map Update.to_json ops));
               ];
           ]
     in
     let round = queries @ batch_req @ update_req in
     let requests =
       (if ping then [ Telemetry.Json.Obj [ ("op", Telemetry.Json.Str "ping") ] ] else [])
       @ List.concat (List.init (max 1 repeat) (fun _ -> round))
       @
       if shutdown then [ Telemetry.Json.Obj [ ("op", Telemetry.Json.Str "shutdown") ] ] else []
     in
     let* () =
       if requests = [] then err "client: nothing to send (use --ping, --query, --batch or --shutdown)"
       else Ok ()
     in
     (* With --trace, every traced op carries a client-minted context on
        the wire (minted per send, so --repeat rounds get distinct ids)
        and the server's trace_id answer is surfaced on its own line,
        ready for [expfinder trace show]. *)
     let with_trace req =
       if not trace then req
       else
         match req with
         | Telemetry.Json.Obj fields
           when (match List.assoc_opt "op" fields with
                | Some (Telemetry.Json.Str op) ->
                  op = "query" || op = "batch" || op = "update"
                | _ -> false) ->
           let ctx = Telemetry.Trace.make ~sampled:true () in
           Telemetry.Json.Obj
             (fields @ [ ("trace", Telemetry.Json.Str (Telemetry.Trace.to_wire ctx)) ])
         | other -> other
     in
     let is_shutdown = function
       | Telemetry.Json.Obj fields -> (
         match List.assoc_opt "op" fields with
         | Some (Telemetry.Json.Str "shutdown") -> true
         | _ -> false)
       | _ -> false
     in
     if concurrency > 1 then begin
       (* Soak mode: every worker domain opens its own connection and
          sends the full round sequence; the shutdown request (if any)
          goes on a fresh connection only after all workers joined, so
          no worker races the server teardown.  Per-response output is
          suppressed — the workers only tally — and one summary line
          with the aggregate request rate is printed instead. *)
       let soak = List.filter (fun r -> not (is_shutdown r)) requests in
       let send_round () =
         Server.with_connection endpoint (fun fd ->
             List.fold_left
               (fun (ok, errs) req ->
                 match Server.request fd (with_trace req) with
                 | Error _ -> (ok, errs + 1)
                 | Ok resp ->
                   (match
                      Option.bind (Telemetry.Json.member "ok" resp) (function
                        | Telemetry.Json.Bool b -> Some b
                        | _ -> None)
                    with
                   | Some true -> (ok + 1, errs)
                   | _ -> (ok, errs + 1)))
               (0, 0) soak)
       in
       let t0 = Telemetry.now_us () in
       let tallies =
         Parallel.run ~domains:concurrency (fun _ ->
             try send_round () with Unix.Unix_error _ -> (0, List.length soak))
       in
       let elapsed_s = (Telemetry.now_us () -. t0) /. 1e6 in
       let ok = Array.fold_left (fun a (o, _) -> a + o) 0 tallies in
       let errs = Array.fold_left (fun a (_, e) -> a + e) 0 tallies in
       let total = ok + errs in
       Printf.printf "soak: %d workers, %d requests (%d ok, %d err) in %.3f s = %.1f req/s\n"
         concurrency total ok errs elapsed_s
         (if elapsed_s > 0. then float_of_int total /. elapsed_s else 0.);
       let* () = if errs > 0 then err "client: %d soak requests failed" errs else Ok () in
       if shutdown then
         match
           Server.with_connection endpoint (fun fd ->
               Server.request fd (Telemetry.Json.Obj [ ("op", Telemetry.Json.Str "shutdown") ]))
         with
         | Ok _ -> Ok ()
         | Error e -> err "client: shutdown: %s" e
         | exception Unix.Unix_error (e, fn, _) ->
           err "cannot reach %s: %s: %s" socket_spec fn (Unix.error_message e)
       else Ok ()
     end
     else
       match
         Server.with_connection endpoint (fun fd ->
             List.fold_left
               (fun acc req ->
                 let* () = acc in
                 match Server.request fd (with_trace req) with
                 | Error e -> err "client: %s" e
                 | Ok resp ->
                   print_endline (Telemetry.Json.to_string resp);
                   if trace then
                     Option.iter
                       (Printf.printf "trace %s\n")
                       (Option.bind (Telemetry.Json.member "trace_id" resp) Telemetry.Json.str_opt);
                   (match Option.bind (Telemetry.Json.member "ok" resp) (function
                      | Telemetry.Json.Bool b -> Some b
                      | _ -> None)
                    with
                   | Some false ->
                     err "server refused: %s"
                       (Option.value ~default:"unknown error"
                          (Option.bind
                             (Telemetry.Json.member "error" resp)
                             Telemetry.Json.str_opt))
                   | _ -> Ok ()))
               (Ok ()) requests)
       with
       | result -> result
       | exception Unix.Unix_error (e, fn, _) ->
         err "cannot reach %s: %s: %s" socket_spec fn (Unix.error_message e))

let replay_run verbose graph_file log_file report_file =
  setup_logs verbose;
  or_die
    (let* g = load_graph graph_file in
     let* events =
       match Telemetry.Qlog.load log_file with
       | Ok events -> Ok events
       | Error e -> err "cannot load query log %s: %s" log_file e
     in
     let* () = if events = [] then err "query log %s holds no events" log_file else Ok () in
     (* With EXPFINDER_QLOG still set, re-running the events would append
        fresh entries to the very log being verified. *)
     Telemetry.Qlog.set_sink None;
     let engine = Engine.create g in
     let summary = Replay.run engine events in
     Format.printf "%a@." Replay.pp_summary summary;
     (match report_file with
     | None -> ()
     | Some path ->
       Telemetry.Report.write (Replay.report summary) path;
       Printf.printf "replay report written to %s\n" path);
     if summary.Replay.mismatches > 0 then
       err "replay: %d answer mismatch(es) against %s" summary.Replay.mismatches log_file
     else Ok ())

(* --- trace ------------------------------------------------------------------- *)

(* Trace explorer: fetch the server's in-process trace store and either
   tabulate it or render one trace's span tree.  Lookup happens
   client-side over the fetched document so [show] sees exactly what
   [list] printed, races with ring eviction notwithstanding. *)
let trace_explorer verbose socket_spec action id =
  setup_logs verbose;
  or_die
    (let* endpoint = Server.endpoint_of_string socket_spec in
     let* status, body = http_get_result socket_spec endpoint "/traces.json" in
     let* () =
       if status = 200 then Ok () else err "server answered HTTP %d for /traces.json" status
     in
     let* doc =
       match Telemetry.Json.of_string body with
       | Ok d -> Ok d
       | Error e -> err "bad /traces.json from %s: %s" socket_spec e
     in
     let traces =
       match Telemetry.Json.member "traces" doc with
       | Some (Telemetry.Json.Arr items) ->
         List.filter_map Telemetry.Tracestore.stored_of_json items
       | _ -> []
     in
     match action with
     | "list" ->
       if traces = [] then
         print_endline
           "no stored traces (the store keeps errors, p99-exceeding requests and a head sample)"
       else begin
         Printf.printf "%-32s %-6s %-8s %10s  %s\n" "TRACE" "OP" "KEPT" "MS" "QUERY";
         List.iter
           (fun (s : Telemetry.Tracestore.stored) ->
             Printf.printf "%-32s %-6s %-8s %10.3f  %s%s\n" s.Telemetry.Tracestore.strace_id
               s.Telemetry.Tracestore.sop s.Telemetry.Tracestore.skept
               s.Telemetry.Tracestore.sduration_ms s.Telemetry.Tracestore.squery
               (if s.Telemetry.Tracestore.serror then "  [error]" else ""))
           traces
       end;
       Ok ()
     | "show" ->
       let* id = match id with Some i -> Ok i | None -> err "trace show: missing trace ID" in
       let matches (s : Telemetry.Tracestore.stored) =
         let tid = s.Telemetry.Tracestore.strace_id in
         String.length id <= String.length tid && String.sub tid 0 (String.length id) = id
       in
       (match List.filter matches traces with
       | [ s ] ->
         Format.printf "%a@." Telemetry.Tracestore.pp_stored s;
         Ok ()
       | [] -> err "no stored trace matches %S (try 'expfinder trace list')" id
       | _ :: _ :: _ -> err "trace id prefix %S is ambiguous" id)
     | other -> err "unknown trace action %S (expected list or show)" other)

(* --- get / postmortem / timeseries ------------------------------------------- *)

(* Raw observability scrape: prints any endpoint's body, so scripts
   (and the smoke targets) can assert on it directly. *)
let get_run verbose socket_spec path =
  setup_logs verbose;
  or_die
    (let* endpoint = Server.endpoint_of_string socket_spec in
     let* status, body = http_get_result socket_spec endpoint path in
     print_string body;
     if status = 200 then Ok () else err "server answered HTTP %d for %s" status path)

let postmortem_run verbose file json =
  setup_logs verbose;
  or_die
    (let* doc =
       match Telemetry.Postmortem.load file with
       | Ok d -> Ok d
       | Error e -> err "cannot load postmortem %s: %s" file e
     in
     if json then print_string (Telemetry.Json.to_string ~pretty:true doc)
     else Format.printf "%a@." Telemetry.Postmortem.pp doc;
     Ok ())

let timeseries_run verbose file report_file =
  setup_logs verbose;
  or_die
    (let* ticks =
       match Telemetry.Timeseries.load file with
       | Ok t -> Ok t
       | Error e -> err "cannot load timeseries capture %s: %s" file e
     in
     let* () = if ticks = [] then err "timeseries capture %s holds no ticks" file else Ok () in
     let series = Hashtbl.create 64 in
     List.iter
       (fun t ->
         List.iter
           (fun (name, v) ->
             let n, _ = Option.value ~default:(0, 0.0) (Hashtbl.find_opt series name) in
             Hashtbl.replace series name (n + 1, v))
           t.Telemetry.Timeseries.fields)
       ticks;
     let t0 = (List.hd ticks).Telemetry.Timeseries.ts_unix in
     let tn = (List.hd (List.rev ticks)).Telemetry.Timeseries.ts_unix in
     Printf.printf "%s: %d ticks spanning %.1fs, %d series\n" file (List.length ticks)
       (tn -. t0) (Hashtbl.length series);
     let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) series []) in
     List.iter
       (fun name ->
         let n, last = Hashtbl.find series name in
         Printf.printf "  %-40s %5d ticks  last %g\n" name n last)
       names;
     (match report_file with
     | None -> ()
     | Some path ->
       Telemetry.Report.write (Telemetry.Timeseries.report ticks) path;
       Printf.printf "timeseries report written to %s\n" path);
     Ok ())

(* --- demo -------------------------------------------------------------------- *)

let demo verbose () =
  setup_logs verbose;
  let g = Collab.graph () in
  let q = Collab.query () in
  let engine = Engine.create g in
  print_endline "== ExpFinder demo: the paper's Fig. 1 example ==";
  Printf.printf "collaboration network: %d people, %d edges\n" (Digraph.node_count g)
    (Digraph.edge_count g);
  print_endline "\n-- Example 1: M(Q,G) --";
  let answer = Engine.evaluate engine q in
  for u = 0 to Pattern.size q - 1 do
    Printf.printf "%s -> %s\n" (Pattern.name q u)
      (String.concat ", " (List.map Collab.name_of (Match_relation.matches answer.Engine.relation u)))
  done;
  print_endline "\n-- Example 2: top-K ranking --";
  List.iteri
    (fun i { Engine.name; rank; _ } ->
      Printf.printf "#%d %s  f = %s\n" (i + 1)
        (Option.value ~default:"?" name)
        (Format.asprintf "%a" Ranking.pp_rank rank))
    (Engine.top_k engine q ~k:2);
  print_endline "\n-- Example 3: incremental update (insert e1) --";
  Engine.register engine q;
  let src, dst = Collab.e1 in
  (match Engine.apply_updates engine [ Update.Insert_edge (src, dst) ] with
  | [ report ] ->
    Printf.printf "inserted (%s, %s); affected area: %d node(s)\n" (Collab.name_of src)
      (Collab.name_of dst) report.Incremental.area;
    List.iter
      (fun (u, v) -> Printf.printf "new match: (%s, %s)\n" (Pattern.name q u) (Collab.name_of v))
      report.Incremental.added
  | _ -> ());
  0

(* --- cmdliner plumbing -------------------------------------------------------- *)

open Cmdliner

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let graph_arg =
  Arg.(required & opt (some file) None & info [ "g"; "graph" ] ~docv:"FILE" ~doc:"Data graph file.")

let pattern_arg =
  Arg.(
    required & opt (some file) None & info [ "q"; "query" ] ~docv:"FILE" ~doc:"Pattern query file.")

let dot_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write the result graph in DOT format.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ] ~doc:"Enable telemetry and print the per-query stage tree and counters.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Enable telemetry and write the query's span tree as Chrome trace-event JSON.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Differential self-check: re-evaluate cached/registered/compressed answers via \
           the direct path and verify the served relation (same as EXPFINDER_CHECK=1).")

let gen_cmd =
  let kind = Arg.(value & opt string "flat" & info [ "kind" ] ~docv:"KIND" ~doc:"flat|org|twitter|collab") in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Node count (flat/twitter).") in
  let deg = Arg.(value & opt int 4 & info [ "avg-degree" ] ~doc:"Average out-degree (flat).") in
  let teams = Arg.(value & opt int 50 & info [ "teams" ] ~doc:"Team count (org).") in
  let tsize = Arg.(value & opt int 8 & info [ "team-size" ] ~doc:"Team size (org).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let out = Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a data graph")
    Term.(const gen $ verbose_arg $ kind $ n $ deg $ teams $ tsize $ seed $ out)

let import_cmd =
  let edges = Arg.(required & opt (some file) None & info [ "edges" ] ~docv:"FILE" ~doc:"SNAP-style edge list (src dst per line, # comments).") in
  let label = Arg.(value & opt string "node" & info [ "label" ] ~doc:"Label for all imported nodes.") in
  let exp_max = Arg.(value & opt int 0 & info [ "random-exp" ] ~docv:"MAX" ~doc:"Assign random exp attributes in [0..MAX] (0 = none).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed for random attributes.") in
  let out = Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output graph file.") in
  Cmd.v (Cmd.info "import" ~doc:"Import a real-world edge list as a data graph")
    Term.(const import $ verbose_arg $ edges $ label $ exp_max $ seed $ out)

let stats_cmd =
  let q =
    Arg.(
      value
      & opt (some file) None
      & info [ "q"; "query" ] ~docv:"FILE"
          ~doc:"Also run this query traced and dump the metric registry and profile.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Dump the metric registry (and, with $(b,--recent), the flight recorder) as JSON \
                instead of the pretty-printed tables.")
  in
  let recent =
    Arg.(
      value & flag
      & info [ "recent" ]
          ~doc:"Dump the flight recorder: the most recent query events with strategy, duration \
                and counter deltas.  A query is flagged slow when it reached the p99 of the \
                last 60 s of its op class, once those hold 20 requests.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print statistics of a data graph (and optionally telemetry metrics)")
    Term.(const stats $ verbose_arg $ graph_arg $ q $ json $ recent)

let explain_cmd =
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:"Execute the plan and print per-node estimated vs actual candidate counts, \
                matches and refinement removals (misestimates flagged).")
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Print the query plan, optionally with execution feedback")
    Term.(const explain_query $ verbose_arg $ graph_arg $ pattern_arg $ analyze)

let bench_diff_cmd =
  let old_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json" ~doc:"Baseline report.")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json" ~doc:"Candidate report.")
  in
  let threshold =
    Arg.(
      value & opt float 0.5
      & info [ "threshold" ] ~docv:"FRAC"
          ~doc:"Median growth beyond this fraction (with non-overlapping IQRs) is a regression.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Compare two bench reports; non-zero exit on performance regressions")
    Term.(const bench_diff $ verbose_arg $ old_file $ new_file $ threshold)

let query_cmd =
  let summary = Arg.(value & flag & info [ "summary" ] ~doc:"Roll-up view of the result graph.") in
  let drill =
    Arg.(value & opt (some string) None & info [ "drill" ] ~docv:"NODE" ~doc:"Drill down into the matches of this pattern node.")
  in
  let explain = Arg.(value & flag & info [ "explain" ] ~doc:"Print the query plan.") in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a pattern query (bounded simulation)")
    Term.(
      const query $ verbose_arg $ graph_arg $ pattern_arg $ dot_arg $ summary $ drill $ explain
      $ profile_arg $ trace_arg $ check_arg)

let analyze_cmd =
  let contains =
    Arg.(
      value
      & opt (some file) None
      & info [ "contains" ] ~docv:"FILE"
          ~doc:"Also decide containment between this query and the pattern in $(docv).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Statically analyze a pattern query (Qlint): satisfiability, lints, containment")
    Term.(const analyze $ verbose_arg $ pattern_arg $ contains)

let topk_cmd =
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Number of experts.") in
  Cmd.v (Cmd.info "topk" ~doc:"Rank matches of the output node and select top-K experts")
    Term.(
      const topk $ verbose_arg $ graph_arg $ pattern_arg $ k $ dot_arg $ profile_arg $ trace_arg
      $ check_arg)

let batch_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Batch file: either inline patterns (stanzas each opened by the usual \
             $(b,expfinder-pattern) header) or one pattern file path per line.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Evaluate a batch of pattern queries against one snapshot, sharing candidate scans \
          and containment across the batch")
    Term.(const batch $ verbose_arg $ graph_arg $ file $ profile_arg $ trace_arg $ check_arg)

let compress_cmd_t =
  let atoms =
    Arg.(value & opt string "" & info [ "atoms" ] ~docv:"CONDS" ~doc:"Comma-separated predicate atoms the compression must preserve, e.g. exp>=2,exp>=5.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the compressed graph.") in
  Cmd.v (Cmd.info "compress" ~doc:"Compress a graph (query-preserving bisimulation)")
    Term.(const compress_cmd $ verbose_arg $ graph_arg $ atoms $ out)

let update_cmd =
  let ins = Arg.(value & opt_all string [] & info [ "insert" ] ~docv:"U,V" ~doc:"Insert edge (repeatable).") in
  let del = Arg.(value & opt_all string [] & info [ "delete" ] ~docv:"U,V" ~doc:"Delete edge (repeatable).") in
  let q = Arg.(value & opt (some file) None & info [ "q"; "query" ] ~docv:"FILE" ~doc:"Maintain this query incrementally and show the delta.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the updated graph.") in
  Cmd.v (Cmd.info "update" ~doc:"Apply edge updates, optionally maintaining a query incrementally")
    Term.(const update $ verbose_arg $ graph_arg $ ins $ del $ q $ out)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"ENDPOINT"
        ~doc:
          "Server endpoint: a Unix-domain socket path, a bare $(i,PORT) (binds 127.0.0.1), or \
           $(i,HOST:PORT).  A spec containing '/' or starting with '.' is always read as a \
           socket path, even if it looks like $(i,HOST:PORT).")

let serve_cmd =
  let max_connections =
    Arg.(
      value & opt int 0
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Stop after serving $(docv) connections (0 = serve until a shutdown request).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve pattern queries over a socket, with live /metrics, /healthz and /stats.json"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Loads the graph, builds one engine, and answers newline-delimited JSON requests \
              (ops: query, batch, update, ping, stats, shutdown) until a client sends \
              {\"op\": \"shutdown\"}.  HTTP GETs on the same socket serve /metrics (Prometheus \
              text format), /healthz, /stats.json, /timeseries.json (multi-resolution \
              retention rings) and /alerts.json (SLO burn-rate alerts).";
           `P
             "Set $(b,EXPFINDER_QLOG) to capture every served request in the structured query \
              log, ready for $(b,expfinder replay); $(b,EXPFINDER_TIMESERIES) to persist one \
              JSONL telemetry tick per second; $(b,EXPFINDER_POSTMORTEM_DIR) to write a crash \
              artifact on fatal signals and uncaught exceptions.  The SLO policy is fixed: 99% \
              availability per op class, firing when the 300 s window burns error budget at \
              14.4x or more and the 3600 s window at 6x or more (alert states on \
              /alerts.json).";
         ])
    Term.(const serve_run $ verbose_arg $ graph_arg $ socket_arg $ max_connections)

let client_cmd =
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Send a ping first.") in
  let queries =
    Arg.(
      value & opt_all file []
      & info [ "q"; "query" ] ~docv:"FILE" ~doc:"Send this pattern query (repeatable).")
  in
  let batch =
    Arg.(
      value
      & opt (some file) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:"Send the patterns of this batch file as one batch request.")
  in
  let inserts =
    Arg.(
      value & opt_all string []
      & info [ "insert" ] ~docv:"U,V"
          ~doc:"Include edge insertion $(docv) in an update request (repeatable).")
  in
  let deletes =
    Arg.(
      value & opt_all string []
      & info [ "delete" ] ~docv:"U,V"
          ~doc:"Include edge deletion $(docv) in an update request (repeatable).")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N" ~doc:"Send the query/batch/update round $(docv) times.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to shut down afterwards.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Propagate a client-minted trace context with every query/batch/update and print \
             each response's trace id on its own $(b,trace ID) line (drill down with \
             $(b,expfinder trace show ID)).")
  in
  let concurrency =
    Arg.(
      value & opt int 1
      & info [ "concurrency" ] ~docv:"N"
          ~doc:
            "Soak the server from $(docv) concurrent worker domains, each on its own \
             connection sending the full query/batch/update round $(b,--repeat) times.  \
             Per-response output is replaced by one summary line with the aggregate request \
             rate; $(b,--shutdown) is sent after all workers finish.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running expfinder serve and print the JSON responses")
    Term.(
      const client_run $ verbose_arg $ socket_arg $ ping $ queries $ batch $ inserts $ deletes
      $ repeat $ shutdown $ trace $ concurrency)

let trace_cmd =
  let action =
    Arg.(
      value & pos 0 string "list"
      & info [] ~docv:"ACTION" ~doc:"$(b,list) (default) or $(b,show) $(i,ID).")
  in
  let id =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"ID" ~doc:"Trace id (or unique prefix) to show.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Explore the trace store of a running expfinder serve"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Fetches /traces.json — the server's bounded in-process trace store (errors and \
              p99-exceeding requests always kept, the rest head-sampled; 128 traces) — and \
              either tabulates the stored traces ($(b,list)) or renders one trace's span tree \
              with per-span self times and the critical path marked ($(b,show) $(i,ID)).  Trace ids come from $(b,expfinder client --trace) \
              responses, /stats.json exemplars, or the qlog.";
         ])
    Term.(const trace_explorer $ verbose_arg $ socket_arg $ action $ id)

let get_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:
            "HTTP path to fetch, e.g. /metrics, /stats.json, /timeseries.json, /alerts.json, \
             /domains.json or /profile.folded ($(b,?reset=1) clears the profile after the read).")
  in
  Cmd.v
    (Cmd.info "get"
       ~doc:"Fetch one observability endpoint from a running expfinder serve and print the body")
    Term.(const get_run $ verbose_arg $ socket_arg $ path)

let postmortem_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Postmortem artifact written to EXPFINDER_POSTMORTEM_DIR.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw artifact instead of the summary.")
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:"Pretty-print a crash artifact: alerts, windows, GC state and the flight recorder")
    Term.(const postmortem_run $ verbose_arg $ file $ json)

let timeseries_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL capture written via EXPFINDER_TIMESERIES.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Convert the capture to a bench report (one record per series), so two captures \
             diff under $(b,expfinder bench-diff).")
  in
  Cmd.v
    (Cmd.info "timeseries" ~doc:"Summarize a telemetry timeseries capture (EXPFINDER_TIMESERIES)")
    Term.(const timeseries_run $ verbose_arg $ file $ report)

let replay_cmd =
  let log_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LOG.jsonl" ~doc:"Query log captured via EXPFINDER_QLOG.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the replay latencies as a bench report (schema shared with the bench \
             harness, so two replay reports diff under $(b,expfinder bench-diff)).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run a captured query log and verify every answer digest and size matches"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Replays the log in order against a fresh engine over the given graph: queries and \
              batches re-evaluate their recorded patterns and must reproduce the recorded \
              answer digests byte for byte and the recorded pair counts; updates re-apply their \
              recorded ΔG.  Exits non-zero on any mismatch.";
         ])
    Term.(const replay_run $ verbose_arg $ graph_arg $ log_file $ report)

let demo_cmd = Cmd.v (Cmd.info "demo" ~doc:"Walk through the paper's Fig. 1 example") Term.(const demo $ verbose_arg $ const ())

let main_cmd =
  let doc = "finding experts in social networks by graph pattern matching" in
  Cmd.group (Cmd.info "expfinder" ~version:"1.0.0" ~doc)
    [
      gen_cmd;
      import_cmd;
      stats_cmd;
      analyze_cmd;
      explain_cmd;
      bench_diff_cmd;
      query_cmd;
      batch_cmd;
      topk_cmd;
      compress_cmd_t;
      update_cmd;
      serve_cmd;
      client_cmd;
      trace_cmd;
      get_cmd;
      postmortem_cmd;
      timeseries_cmd;
      replay_cmd;
      demo_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
