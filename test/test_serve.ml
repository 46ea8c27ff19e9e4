(* End-to-end serving-path tests: run `expfinder serve` as a subprocess
   with the query log on, drive it over its socket (JSONL queries,
   batches, updates, plus the HTTP observability endpoints), shut it
   down, and close the loop with `expfinder replay` + `bench-diff` on
   the captured log. *)

open Expfinder_telemetry
module Server = Expfinder_server

let exe =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/expfinder.exe";
      "_build/default/bin/expfinder.exe";
      "../bin/expfinder.exe";
    ]
  in
  (* Absolute, so a server can be started in another directory. *)
  List.find_opt Sys.file_exists candidates
  |> Option.map (fun path ->
         if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path)

let with_tmpdir f =
  let dir = Filename.temp_file "expfinder-serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let run exe args =
  let cmd = Filename.quote_command exe args ^ " 2>/dev/null" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, Buffer.contents buf)

let contains haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub haystack i k = needle || scan (i + 1)) in
  scan 0

(* A minted trace id: 32 lowercase hex digits, not all zero. *)
let valid_trace_id s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  && String.exists (( <> ) '0') s

let paper_query =
  "expfinder-pattern 1\n\
   node 0 SA SA exp>=int:5\n\
   node 1 SD SD exp>=int:2\n\
   node 2 BA BA exp>=int:3\n\
   node 3 ST ST exp>=int:2\n\
   edge 0 1 2\n\
   edge 1 0 2\n\
   edge 0 2 3\n\
   edge 3 2 1\n\
   output 0\n"

(* Start `expfinder serve` as a child process (stdout/stderr to
   /dev/null, EXPFINDER_QLOG set, working directory [cwd] or ours),
   wait until it answers a ping, run [f] on its pid and endpoint, and
   always reap the child. *)
let with_server_process ?(extra_env = []) ?cwd exe ~graph ~socket ~qlog f =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  (* [extra_env] overrides the inherited value of any variable it
     sets. *)
  let var_name binding =
    match String.index_opt binding '=' with
    | Some i -> String.sub binding 0 i
    | None -> binding
  in
  let extra_env = Printf.sprintf "EXPFINDER_QLOG=%s" qlog :: extra_env in
  let overridden = List.map var_name extra_env in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun b -> not (List.mem (var_name b) overridden))
            (Array.to_list (Unix.environment ()))))
      (Array.of_list extra_env)
  in
  let spawn () =
    Unix.create_process_env exe
      [| exe; "serve"; "-g"; graph; "--socket"; socket |]
      env Unix.stdin devnull devnull
  in
  let pid =
    match cwd with
    | None -> spawn ()
    | Some dir ->
      let here = Sys.getcwd () in
      Sys.chdir dir;
      Fun.protect ~finally:(fun () -> Sys.chdir here) spawn
  in
  Unix.close devnull;
  let endpoint =
    match Server.endpoint_of_string socket with
    | Ok ep -> ep
    | Error _ -> Server.Unix_socket socket
  in
  Fun.protect
    ~finally:(fun () ->
      (* Normal exit path is the shutdown op: give the server a few
         seconds to exit on its own, so the runtime unlinks its
         <pid>.events ring; the kill only fires when an assertion
         failed mid-flight. *)
      let rec reap attempts =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when attempts > 0 ->
          Unix.sleepf 0.05;
          reap (attempts - 1)
        | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> (* [f] reaped it *) ()
      in
      reap 100)
    (fun () ->
      let rec wait_ready attempts =
        if attempts = 0 then Alcotest.fail "server did not come up within 10s"
        else
          match
            Server.with_connection endpoint (fun fd ->
                Server.request fd (Json.Obj [ ("op", Json.Str "ping") ]))
          with
          | Ok _ -> ()
          | Error _ -> Unix.sleepf 0.1; wait_ready (attempts - 1)
          | exception Unix.Unix_error (_, _, _) ->
            Unix.sleepf 0.1;
            wait_ready (attempts - 1)
      in
      wait_ready 100;
      f pid endpoint)

let with_server ?extra_env exe ~graph ~socket ~qlog f =
  with_server_process ?extra_env exe ~graph ~socket ~qlog (fun _ endpoint -> f endpoint)

let ok_of json =
  match Option.bind (Json.member "ok" json) (function Json.Bool b -> Some b | _ -> None) with
  | Some b -> b
  | None -> false

let str_field name json = Option.bind (Json.member name json) Json.str_opt

let request_exn fd req =
  match Server.request fd req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "request failed: %s" e

(* The acceptance-criteria flow: >= 50 queries over the socket, live
   /metrics with nonzero QPS and a p95 quantile, /healthz, /stats.json,
   then shutdown and a digest-identical replay whose reports bench-diff
   cleanly. *)
let serve_e2e exe () =
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let socket = Filename.concat dir "serve.sock" in
      let qlog = Filename.concat dir "qlog.jsonl" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      with_server exe ~graph ~socket ~qlog
        ~extra_env:[ "EXPFINDER_SAMPLE_PERIOD_S=0.2" ]
        (fun endpoint ->
          (* 50 queries on one connection; every answer must agree. *)
          let digests =
            Server.with_connection endpoint (fun fd ->
                List.init 50 (fun _ ->
                    let resp =
                      request_exn fd
                        (Json.Obj
                           [ ("op", Json.Str "query"); ("pattern", Json.Str paper_query) ])
                    in
                    Alcotest.(check bool) "query ok" true (ok_of resp);
                    match str_field "digest" resp with
                    | Some d -> d
                    | None -> Alcotest.fail "query response carries no digest"))
          in
          (match digests with
          | first :: rest ->
            Alcotest.(check bool) "all 50 digests agree" true
              (List.for_all (String.equal first) rest)
          | [] -> Alcotest.fail "no answers");
          (* A batch and an update, so the replay covers every event
             kind.  The update inserts the paper's e1 edge. *)
          Server.with_connection endpoint (fun fd ->
              let resp =
                request_exn fd
                  (Json.Obj
                     [
                       ("op", Json.Str "batch");
                       ("patterns", Json.Arr [ Json.Str paper_query; Json.Str paper_query ]);
                     ])
              in
              Alcotest.(check bool) "batch ok" true (ok_of resp);
              (match Option.bind (Json.member "answers" resp) Json.list_opt with
              | Some answers -> Alcotest.(check int) "batch answers" 2 (List.length answers)
              | None -> Alcotest.fail "batch response carries no answers");
              let resp =
                request_exn fd
                  (Json.Obj
                     [
                       ("op", Json.Str "update");
                       ( "ops",
                         Json.Arr
                           [
                             Json.Obj
                               [ ("op", Json.Str "+"); ("u", Json.Int 1); ("v", Json.Int 5) ];
                           ] );
                     ])
              in
              Alcotest.(check bool) "update ok" true (ok_of resp);
              let resp =
                request_exn fd
                  (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str paper_query) ])
              in
              Alcotest.(check bool) "post-update query ok" true (ok_of resp));
          (* Malformed requests answer ok:false without killing the
             server. *)
          Server.with_connection endpoint (fun fd ->
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "nonsense") ]) in
              Alcotest.(check bool) "unknown op refused" false (ok_of resp);
              let resp =
                request_exn fd
                  (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str "not a pattern") ])
              in
              Alcotest.(check bool) "bad pattern refused" false (ok_of resp));
          (* HTTP observability endpoints. *)
          (match Server.http_get endpoint "/healthz" with
          | Ok (status, body) ->
            Alcotest.(check int) "/healthz status" 200 status;
            Alcotest.(check bool) "/healthz body" true (contains body "ok")
          | Error e -> Alcotest.failf "/healthz: %s" e);
          (match Server.http_get endpoint "/metrics" with
          | Ok (status, body) ->
            Alcotest.(check int) "/metrics status" 200 status;
            Alcotest.(check bool) "query window exported" true
              (contains body "expfinder_qps{op=\"query\"}");
            Alcotest.(check bool) "p95 latency exported" true
              (contains body "expfinder_latency_ms{op=\"query\",quantile=\"0.95\"}");
            Alcotest.(check bool) "engine counters exported" true
              (contains body "expfinder_engine_queries");
            (* The QPS gauge must be live (nonzero) after 50 queries. *)
            let nonzero_qps =
              String.split_on_char '\n' body
              |> List.exists (fun line ->
                     match String.index_opt line ' ' with
                     | Some i when String.sub line 0 i = "expfinder_qps{op=\"query\"}" ->
                       (match
                          float_of_string_opt
                            (String.sub line (i + 1) (String.length line - i - 1))
                        with
                       | Some v -> v > 0.0
                       | None -> false)
                     | _ -> false)
            in
            Alcotest.(check bool) "query QPS is nonzero" true nonzero_qps
          | Error e -> Alcotest.failf "/metrics: %s" e);
          (match Server.http_get endpoint "/stats.json" with
          | Ok (status, body) -> (
            Alcotest.(check int) "/stats.json status" 200 status;
            match Json.of_string body with
            | Error e -> Alcotest.failf "/stats.json does not parse: %s" e
            | Ok doc -> (
              match
                Option.bind (Json.member "windows" doc) (Json.member "query")
                |> Fun.flip Option.bind (Json.member "count")
              with
              | Some (Json.Int count) ->
                Alcotest.(check bool) "window counted the queries" true (count >= 50)
              | _ -> Alcotest.fail "/stats.json has no query window"))
          | Error e -> Alcotest.failf "/stats.json: %s" e);
          (* /timeseries.json: wait for the sampler thread's first tick
             (0.2s period here), then check the multi-resolution shape. *)
          let rec wait_timeseries attempts =
            if attempts = 0 then Alcotest.fail "sampler produced no timeseries within 10s"
            else
              match Server.http_get endpoint "/timeseries.json" with
              | Ok (200, body) -> (
                match Json.of_string body with
                | Error e -> Alcotest.failf "/timeseries.json does not parse: %s" e
                | Ok doc -> (
                  let sampled =
                    match Option.bind (Json.member "resolutions" doc) Json.list_opt with
                    | Some (finest :: _) -> (
                      match Option.bind (Json.member "series" finest) (function
                        | Json.Obj kvs -> Some kvs
                        | _ -> None)
                      with
                      | Some (_ :: _) -> true
                      | _ -> false)
                    | _ -> false
                  in
                  if sampled then doc
                  else begin
                    Unix.sleepf 0.1;
                    wait_timeseries (attempts - 1)
                  end))
              | Ok (status, _) -> Alcotest.failf "/timeseries.json status %d" status
              | Error e -> Alcotest.failf "/timeseries.json: %s" e
          in
          let ts_doc = wait_timeseries 100 in
          (match Option.bind (Json.member "resolutions" ts_doc) Json.list_opt with
          | Some rings ->
            Alcotest.(check bool) "at least three retention resolutions" true
              (List.length rings >= 3);
            let res_of r =
              match Option.bind (Json.member "res_s" r) Json.int_opt with
              | Some s -> s
              | None -> Alcotest.fail "ring without res_s"
            in
            let res = List.map res_of rings in
            Alcotest.(check (list int)) "resolution ladder" [ 1; 10; 60 ] res
          | None -> Alcotest.fail "/timeseries.json has no resolutions");
          (match Option.bind (Json.member "series_kinds" ts_doc) (function
             | Json.Obj kvs -> Some (List.map fst kvs)
             | _ -> None)
          with
          | Some names ->
            Alcotest.(check bool) "query qps series is sampled" true
              (List.mem "win.query.qps" names)
          | None -> Alcotest.fail "/timeseries.json has no series_kinds");
          (* /alerts.json: default objectives are configured and the
             healthy run must not be firing. *)
          (match Server.http_get endpoint "/alerts.json" with
          | Ok (status, body) -> (
            Alcotest.(check int) "/alerts.json status" 200 status;
            match Json.of_string body with
            | Error e -> Alcotest.failf "/alerts.json does not parse: %s" e
            | Ok doc -> (
              match Option.bind (Json.member "alerts" doc) Json.list_opt with
              | Some alerts ->
                Alcotest.(check bool) "objectives configured" true (alerts <> []);
                Alcotest.(check int) "no alert fires on a healthy run" 0
                  (List.length
                     (List.filter (fun a -> Json.member "firing" a = Some (Json.Bool true)) alerts))
              | None -> Alcotest.fail "/alerts.json has no alerts member"))
          | Error e -> Alcotest.failf "/alerts.json: %s" e);
          (match Server.http_get endpoint "/no-such-path" with
          | Ok (status, _) -> Alcotest.(check int) "unknown path is 404" 404 status
          | Error e -> Alcotest.failf "/no-such-path: %s" e);
          (* Clean shutdown over the wire. *)
          Server.with_connection endpoint (fun fd ->
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "shutdown") ]) in
              Alcotest.(check bool) "shutdown acknowledged" true (ok_of resp)));
      (* The captured log replays with byte-identical digests... *)
      let rep1 = Filename.concat dir "replay1.json" in
      let rep2 = Filename.concat dir "replay2.json" in
      let code, out = run exe [ "replay"; qlog; "-g"; graph; "--report"; rep1 ] in
      Alcotest.(check int) "replay exits 0" 0 code;
      Alcotest.(check bool) "no answer mismatches" true (contains out "0 answer mismatches");
      Alcotest.(check bool) "all events replayed" true (contains out "replayed 53/53");
      (* ... and replay reports pair up under bench-diff.  A report
         diffed against itself must be exactly clean; two separate runs
         are diffed with a huge threshold because sub-millisecond
         medians are pure scheduling noise under parallel test load. *)
      let code, out = run exe [ "bench-diff"; rep1; rep1 ] in
      Alcotest.(check int) "bench-diff accepts replay reports" 0 code;
      Alcotest.(check bool) "records were paired" true (contains out "record(s)");
      let code, _ = run exe [ "replay"; qlog; "-g"; graph; "--report"; rep2 ] in
      Alcotest.(check int) "second replay exits 0" 0 code;
      let code, _ = run exe [ "bench-diff"; rep1; rep2; "--threshold"; "1000" ] in
      Alcotest.(check int) "two replay runs pair cleanly" 0 code;
      (* A tampered log is caught with a non-zero exit: flip the first
         hex digit of the first non-empty recorded digest. *)
      let tampered = Filename.concat dir "tampered.jsonl" in
      let ic = open_in qlog in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let marker = "\"digest\":\"" in
      let rec find_digest i =
        if i + String.length marker >= String.length contents then
          Alcotest.fail "captured log holds no digest"
        else if String.sub contents i (String.length marker) = marker
                && contents.[i + String.length marker] <> '"' then
          i + String.length marker
        else find_digest (i + 1)
      in
      let pos = find_digest 0 in
      let flipped = Bytes.of_string contents in
      Bytes.set flipped pos (if contents.[pos] = 'f' then '0' else 'f');
      let oc = open_out tampered in
      output_string oc (Bytes.to_string flipped);
      close_out oc;
      let code, out = run exe [ "replay"; tampered; "-g"; graph ] in
      Alcotest.(check bool) "tampered replay exits non-zero" true (code <> 0);
      Alcotest.(check bool) "mismatch reported" true (contains out "MISMATCH"))

(* Served digests against direct evaluation.  Cached replies read the
   digest memoised in the cache entry; each must equal
   [Match_relation.digest] of [Planner.run] on a graph freshly loaded
   from the same file, for [query] and [batch] alike, before and after
   an update (a memo of the old epoch must never answer the new one).
   The qlog line of each request must carry the reply's digest. *)
let digest_e2e exe () =
  let open Expfinder_graph in
  let open Expfinder_pattern in
  let open Expfinder_core in
  let module Update = Expfinder_incremental.Update in
  let module Collab = Expfinder_workload.Collab in
  let sa_query = "expfinder-pattern 1\nnode 0 SA * exp>=int:5\noutput 0\n" in
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let socket = Filename.concat dir "serve.sock" in
      let qlog = Filename.concat dir "qlog.jsonl" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      let fresh = match Graph_io.load graph with Ok g -> g | Error e -> Alcotest.fail e in
      let direct_relation text =
        match Pattern_io.of_string text with
        | Ok p ->
          let m = Planner.run p (Snapshot.of_digraph fresh) in
          Alcotest.(check bool) "test pattern has a total answer" true (Match_relation.is_total m);
          m
        | Error e -> Alcotest.fail e
      in
      let direct text = Match_relation.digest (direct_relation text) in
      let digest_of resp =
        match str_field "digest" resp with
        | Some d -> d
        | None -> Alcotest.fail "answer carries no digest"
      in
      let pairs_of resp =
        match Option.bind (Json.member "pairs" resp) Json.int_opt with
        | Some n -> n
        | None -> Alcotest.fail "answer carries no pair count"
      in
      (* Request kind and reply digest (the per-answer digests for a
         batch), in the order the server logs them. *)
      let served = ref [] in
      let query fd text =
        let resp =
          request_exn fd (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str text) ])
        in
        Alcotest.(check bool) "query ok" true (ok_of resp);
        Alcotest.(check string) "query digest = direct" (direct text) (digest_of resp);
        Alcotest.(check int) "query pairs = direct"
          (Match_relation.total (direct_relation text))
          (pairs_of resp);
        served := ("query", [ digest_of resp ]) :: !served;
        (pairs_of resp, digest_of resp)
      in
      let batch fd texts =
        let resp =
          request_exn fd
            (Json.Obj
               [
                 ("op", Json.Str "batch");
                 ("patterns", Json.Arr (List.map (fun t -> Json.Str t) texts));
               ])
        in
        Alcotest.(check bool) "batch ok" true (ok_of resp);
        let digests =
          match Option.bind (Json.member "answers" resp) Json.list_opt with
          | Some answers -> List.map digest_of answers
          | None -> Alcotest.fail "batch response carries no answers"
        in
        Alcotest.(check (list string)) "batch digests = direct" (List.map direct texts) digests;
        (match Option.bind (Json.member "answers" resp) Json.list_opt with
        | Some answers ->
          Alcotest.(check (list int)) "batch pairs = direct"
            (List.map (fun t -> Match_relation.total (direct_relation t)) texts)
            (List.map pairs_of answers)
        | None -> ());
        served := ("batch", digests) :: !served
      in
      let round fd =
        (* The first query of an epoch stores its kernel; the rest are
           cache hits served from the memo, with the miss's pair count
           and digest. *)
        let miss = query fd paper_query in
        let hit = query fd paper_query in
        Alcotest.(check (pair int string)) "hit replies as the miss did" miss hit;
        batch fd [ paper_query; sa_query; paper_query ];
        ignore (query fd sa_query : int * string);
        batch fd [ sa_query; paper_query ]
      in
      with_server exe ~graph ~socket ~qlog (fun endpoint ->
          Server.with_connection endpoint (fun fd ->
              round fd;
              (* The paper's e1, which makes Fred an SD match. *)
              let update = Update.Insert_edge (fst Collab.e1, snd Collab.e1) in
              let resp =
                request_exn fd
                  (Json.Obj [ ("op", Json.Str "update"); ("ops", Json.Arr [ Update.to_json update ]) ])
              in
              Alcotest.(check bool) "update ok" true (ok_of resp);
              let before = direct paper_query in
              Alcotest.(check bool) "update applied to the fresh graph" true
                (Update.apply_batch fresh [ update ] = 1);
              Alcotest.(check bool) "the update changes the answer" true
                (direct paper_query <> before);
              round fd;
              (* Parses are memoised by pattern text from its second
                 sighting on: a malformed pattern is refused before it
                 is admitted, when it is admitted and when it is read
                 back from the memo. *)
              List.iter
                (fun attempt ->
                  let resp =
                    request_exn fd
                      (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str "no pattern") ])
                  in
                  Alcotest.(check bool) (attempt ^ " malformed pattern refused") false (ok_of resp))
                [ "first"; "second"; "third" ];
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "shutdown") ]) in
              Alcotest.(check bool) "shutdown acknowledged" true (ok_of resp)));
      let events = match Qlog.load qlog with Ok e -> e | Error e -> Alcotest.fail e in
      let logged =
        List.filter_map
          (fun (e : Qlog.event) ->
            match e.Qlog.kind with
            | Qlog.Query -> Some ("query", e.Qlog.digest)
            | Qlog.Batch -> Some ("batch", e.Qlog.digest)
            | _ -> None)
          events
      in
      let expected =
        List.rev_map
          (fun (kind, digests) ->
            match (kind, digests) with
            | "query", [ d ] -> (kind, d)
            | _ -> (kind, Digest.to_hex (Digest.string (String.concat "" digests))))
          !served
      in
      Alcotest.(check (list (pair string string))) "qlog digests = reply digests" expected logged)

(* `expfinder get` over TCP: the spec "127.0.0.1:PORT" must resolve and
   print /stats.json, whose window summary holds the query, with exit
   0; an unresolvable host must be a clean non-zero exit. *)
let get_tcp_e2e exe () =
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let qlog = Filename.concat dir "qlog.jsonl" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      let port = 15000 + (Unix.getpid () mod 20000) in
      let spec = Printf.sprintf "127.0.0.1:%d" port in
      with_server exe ~graph ~socket:spec ~qlog (fun endpoint ->
          (* One query so the window summary has something to hold. *)
          Server.with_connection endpoint (fun fd ->
              let resp =
                request_exn fd
                  (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str paper_query) ])
              in
              Alcotest.(check bool) "query over TCP ok" true (ok_of resp));
          let code, out = run exe [ "get"; "--socket"; spec; "/stats.json" ] in
          Alcotest.(check int) "get host:port /stats.json exits 0" 0 code;
          (match Json.of_string out with
          | Error e -> Alcotest.failf "printed /stats.json does not parse: %s" e
          | Ok doc ->
            Alcotest.(check bool) "prints the query window" true
              (Option.bind (Json.member "windows" doc) (Json.member "query") <> None));
          let code, _ =
            run exe [ "get"; "--socket"; "no-such-host.invalid:80"; "/stats.json" ]
          in
          (* 1 is the CLI's error exit; an escaped exception exits 125. *)
          Alcotest.(check int) "unresolvable host is a clean error" 1 code;
          Server.with_connection endpoint (fun fd ->
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "shutdown") ]) in
              Alcotest.(check bool) "shutdown acknowledged" true (ok_of resp))))

(* The value of the first /metrics sample named exactly [sample]. *)
let metric_value body sample =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some i when String.sub line 0 i = sample ->
           float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)

(* With nothing but the default environment, the served signals agree:
   the registry counts every query the query window counts, repeats are
   counted as cache hits, and every flight-recorder event carries its
   request's counter delta. *)
let served_signals_e2e exe () =
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      with_server exe ~graph ~socket:(Filename.concat dir "serve.sock")
        ~qlog:(Filename.concat dir "qlog.jsonl")
        (fun endpoint ->
          let queries = 5 in
          Server.with_connection endpoint (fun fd ->
              for _ = 1 to queries do
                Alcotest.(check bool) "query ok" true
                  (ok_of
                     (request_exn fd
                        (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str paper_query) ])))
              done);
          let get path =
            match Server.http_get endpoint path with
            | Ok (200, body) -> body
            | Ok (status, _) -> Alcotest.failf "%s -> HTTP %d" path status
            | Error e -> Alcotest.failf "%s: %s" path e
          in
          let metrics = get "/metrics" in
          let value sample =
            match metric_value metrics sample with
            | Some v -> v
            | None -> Alcotest.failf "/metrics has no sample %s" sample
          in
          let windowed = value "expfinder_window_requests{op=\"query\"}" in
          Alcotest.(check (float 0.0)) "the query window holds every query"
            (float_of_int queries) windowed;
          Alcotest.(check (float 0.0)) "engine_queries = window_requests{op=query}" windowed
            (value "expfinder_engine_queries");
          Alcotest.(check bool) "repeats are counted as cache hits" true
            (value "expfinder_cache_hits" >= 1.0);
          (match Json.of_string (get "/stats.json") with
          | Error e -> Alcotest.failf "/stats.json does not parse: %s" e
          | Ok doc ->
            let events =
              Option.value ~default:[] (Option.bind (Json.member "recorder" doc) Json.list_opt)
            in
            Alcotest.(check int) "one recorder event per query" queries (List.length events);
            List.iter
              (fun event ->
                match Json.member "counters" event with
                | Some (Json.Obj (_ :: _)) -> ()
                | _ -> Alcotest.fail "a recorder event has an empty counters map")
              events);
          Server.with_connection endpoint (fun fd ->
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "shutdown") ]) in
              Alcotest.(check bool) "shutdown acknowledged" true (ok_of resp))))

(* A plain SIGTERM, without EXPFINDER_POSTMORTEM_DIR, must still be a
   normal exit (128 + 15), which is what lets the runtime unlink the
   <pid>.events ring that GC-pause collection created in the server's
   working directory. *)
let sigterm_e2e exe () =
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      let rings () =
        List.filter
          (fun f -> Filename.check_suffix f ".events")
          (Array.to_list (Sys.readdir dir))
      in
      with_server_process exe ~cwd:dir ~graph ~socket:(Filename.concat dir "serve.sock")
        ~qlog:(Filename.concat dir "qlog.jsonl")
        (fun pid _ ->
          Alcotest.(check (list string)) "the ring lives in the working directory"
            [ Printf.sprintf "%d.events" pid ]
            (rings ());
          Unix.kill pid Sys.sigterm;
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED code -> Alcotest.(check int) "SIGTERM exits 143" 143 code
          | _ -> Alcotest.fail "SIGTERM killed the server instead of exiting it");
      Alcotest.(check (list string)) "no ring left behind" [] (rings ()))

(* One-shot raw HTTP exchange: the server answers a single GET and
   closes, so reading to EOF yields status line, headers and body in
   one string — which is what the traceparent-echo assertions need
   (Server.http_get drops the headers). *)
let raw_http endpoint request =
  Server.with_connection endpoint (fun fd ->
      let bytes = Bytes.of_string request in
      let off = ref 0 in
      while !off < Bytes.length bytes do
        off := !off + Unix.write fd bytes !off (Bytes.length bytes - !off)
      done;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec read_all () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          read_all ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      read_all ();
      Buffer.contents buf)

(* End-to-end trace propagation, parameterized over the transport: the
   client mints a context, the response/qlog/trace-store all carry the
   same trace id, and a malformed context (JSONL field or traceparent
   header) degrades to a fresh mint rather than an error. *)
let trace_e2e ~tcp exe () =
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let qlog = Filename.concat dir "qlog.jsonl" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      let socket =
        if tcp then
          Printf.sprintf "127.0.0.1:%d" (17000 + (Unix.getpid () mod 20000))
        else Filename.concat dir "serve.sock"
      in
      let ctx = Trace.make ~sampled:true () in
      with_server exe ~graph ~socket ~qlog (fun endpoint ->
          (* First query after boot is head-sampled, so the store must
             hold it — send the minted context in compact wire form. *)
          let resp =
            Server.with_connection endpoint (fun fd ->
                request_exn fd
                  (Json.Obj
                     [
                       ("op", Json.Str "query");
                       ("pattern", Json.Str paper_query);
                       ("trace", Json.Str (Trace.to_wire ctx));
                     ]))
          in
          Alcotest.(check bool) "traced query ok" true (ok_of resp);
          Alcotest.(check (option string)) "response adopts the client's trace id"
            (Some ctx.Trace.trace_id)
            (str_field "trace_id" resp);
          (match Server.http_get endpoint "/traces.json" with
          | Ok (200, body) ->
            Alcotest.(check bool) "/traces.json resolves the trace id" true
              (contains body ctx.Trace.trace_id)
          | Ok (status, _) -> Alcotest.failf "/traces.json -> HTTP %d" status
          | Error e -> Alcotest.failf "/traces.json failed: %s" e);
          (* The trace explorer renders the same store over the wire. *)
          let code, out =
            run exe [ "trace"; "--socket"; socket; "show"; ctx.Trace.trace_id ]
          in
          Alcotest.(check int) "trace show exits 0" 0 code;
          Alcotest.(check bool) "trace show names the trace id" true
            (contains out ctx.Trace.trace_id);
          let code, out = run exe [ "trace"; "--socket"; socket; "list" ] in
          Alcotest.(check int) "trace list exits 0" 0 code;
          Alcotest.(check bool) "trace list includes the trace id" true
            (contains out ctx.Trace.trace_id);
          (* client --trace end to end: the response's trace id is
             printed and resolvable in the store. *)
          let pat = Filename.concat dir "paper.pattern" in
          let oc = open_out pat in
          output_string oc paper_query;
          close_out oc;
          let code, out = run exe [ "client"; "--socket"; socket; "--trace"; "-q"; pat ] in
          Alcotest.(check int) "client --trace exits 0" 0 code;
          Alcotest.(check bool) "client --trace prints a trace line" true
            (contains out "trace ");
          (* A malformed trace field still answers, under a freshly
             minted (valid, different) id. *)
          let resp =
            Server.with_connection endpoint (fun fd ->
                request_exn fd
                  (Json.Obj
                     [
                       ("op", Json.Str "query");
                       ("pattern", Json.Str paper_query);
                       ("trace", Json.Str "not-a-trace");
                     ]))
          in
          Alcotest.(check bool) "malformed trace still answers" true (ok_of resp);
          (match str_field "trace_id" resp with
          | None -> Alcotest.fail "no trace_id on the fallback response"
          | Some tid ->
            Alcotest.(check bool) "fallback id is a fresh valid mint" true
              (valid_trace_id tid && tid <> ctx.Trace.trace_id));
          (* Same degradation on the HTTP side: a malformed traceparent
             header yields 200 plus a well-formed echoed header. *)
          let reply =
            raw_http endpoint
              "GET /healthz HTTP/1.1\r\ntraceparent: garbage-in\r\n\r\n"
          in
          Alcotest.(check bool) "malformed traceparent scrape succeeds" true
            (contains reply "200");
          Alcotest.(check bool) "echoed traceparent is well-formed" true
            (contains reply "traceparent: 00-");
          Alcotest.(check bool) "echoed traceparent is not the garbage" true
            (not (contains reply "garbage-in"));
          (* A well-formed traceparent header is adopted verbatim. *)
          let reply =
            raw_http endpoint
              (Printf.sprintf "GET /healthz HTTP/1.1\r\ntraceparent: %s\r\n\r\n"
                 (Trace.to_traceparent ctx))
          in
          Alcotest.(check bool) "well-formed traceparent is adopted" true
            (contains reply ctx.Trace.trace_id);
          Server.with_connection endpoint (fun fd ->
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "shutdown") ]) in
              Alcotest.(check bool) "shutdown acknowledged" true (ok_of resp)));
      (* After a clean shutdown the qlog carries the adopted id on its
         query event. *)
      match Qlog.load qlog with
      | Error e -> Alcotest.failf "qlog load failed: %s" e
      | Ok events ->
        Alcotest.(check bool) "qlog records the adopted trace id" true
          (List.exists (fun e -> e.Qlog.trace_id = ctx.Trace.trace_id) events))

(* ------------------------------------------------------------------ *)
(* Endpoint golden shapes *)

(* [null] stands for a non-finite float (an empty histogram's
   percentiles), so it counts as a number wherever values are data. *)
let is_number = function Json.Int _ | Json.Float _ | Json.Null -> true | _ -> false

let is_string = function Json.Str _ -> true | _ -> false

(* Members whose keys are data rather than schema (registry names,
   counter deltas, span attributes, timeseries names): only the kind of
   each value is checked. *)
let data_keyed =
  [
    ( "metrics",
      function
      | Json.Obj fields ->
        List.for_all (fun (k, v) -> if k = "kind" then is_string v else is_number v) fields
      | _ -> false );
    ("counters", is_number);
    ("attrs", is_string);
    ("series_kinds", is_string);
    ( "series",
      function
      | Json.Arr points ->
        List.for_all (function Json.Arr xs -> List.for_all is_number xs | _ -> false) points
      | _ -> false );
  ]

let json_kind = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Int _ | Json.Float _ -> "number"
  | Json.Str _ -> "string"
  | Json.Arr _ -> "array"
  | Json.Obj _ -> "object"

(* Every key path of a document with the JSON kind found there, values
   masked: one "path: kind" line per distinct pair, sorted.  Array
   elements share the path "<array>[]"; a span's [children] share the
   path of the span itself, so trees of any depth have one shape. *)
let json_shape doc =
  let lines = ref [] in
  let add path kind = lines := (path ^ ": " ^ kind) :: !lines in
  let rec walk path json =
    add path (json_kind json);
    match json with
    | Json.Obj members ->
      List.iter
        (fun (k, v) ->
          let p = path ^ "." ^ k in
          match (List.assoc_opt k data_keyed, v) with
          | Some ok, Json.Obj entries ->
            add p (if List.for_all (fun (_, e) -> ok e) entries then "map" else "malformed map")
          | _, Json.Arr spans when k = "children" ->
            add p "array";
            List.iter (walk path) spans
          | _ -> walk p v)
        members
    | Json.Arr items -> List.iter (walk (path ^ "[]")) items
    | _ -> ()
  in
  walk "$" doc;
  List.sort_uniq compare !lines

let golden_stats =
  [
    "$: object";
    "$.alerts: object";
    "$.alerts.alerts: array";
    "$.alerts.alerts[]: object";
    "$.alerts.alerts[].bad_fast: number";
    "$.alerts.alerts[].bad_slow: number";
    "$.alerts.alerts[].burn_fast: number";
    "$.alerts.alerts[].burn_slow: number";
    "$.alerts.alerts[].fast_burn_threshold: number";
    "$.alerts.alerts[].fast_s: number";
    "$.alerts.alerts[].firing: bool";
    "$.alerts.alerts[].kind: string";
    "$.alerts.alerts[].name: string";
    "$.alerts.alerts[].op: string";
    "$.alerts.alerts[].since_unix: number";
    "$.alerts.alerts[].slow_burn_threshold: number";
    "$.alerts.alerts[].slow_s: number";
    "$.alerts.alerts[].state: string";
    "$.alerts.alerts[].target: number";
    "$.alerts.now_unix: number";
    "$.alerts.v: number";
    "$.epoch: number";
    "$.graph_id: number";
    "$.metrics: map";
    "$.pool: object";
    "$.pool.busy: number";
    "$.pool.queue_capacity: number";
    "$.pool.queue_depth: number";
    "$.pool.tasks: number";
    "$.pool.workers: number";
    "$.pool.writer_backlog: number";
    "$.pool.writer_submitted: number";
    "$.process: object";
    "$.process.process.gc_major_collections: number";
    "$.process.process.gc_minor_collections: number";
    "$.process.process.gc_pause_us_max: number";
    "$.process.process.gc_pause_us_total: number";
    "$.process.process.heap_words: number";
    "$.process.process.major_words: number";
    "$.process.process.minor_words: number";
    "$.process.process.rss_bytes: number";
    "$.process.process.start_time_unix: number";
    "$.process.uptime.seconds: number";
    "$.recorder: array";
    "$.recorder[]: object";
    "$.recorder[].counters: map";
    "$.recorder[].duration_ms: number";
    "$.recorder[].query: string";
    "$.recorder[].seq: number";
    "$.recorder[].slow: bool";
    "$.recorder[].strategy: string";
    "$.recorder[].trace_id: string";
    "$.windows: object";
    "$.windows.batch: object";
    "$.windows.batch.count: number";
    "$.windows.batch.error_rate: number";
    "$.windows.batch.errors: number";
    "$.windows.batch.exemplars: array";
    "$.windows.batch.max_ms: number";
    "$.windows.batch.mean_ms: number";
    "$.windows.batch.p50_ms: number";
    "$.windows.batch.p95_ms: number";
    "$.windows.batch.p99_ms: number";
    "$.windows.batch.qps: number";
    "$.windows.batch.window_s: number";
    "$.windows.query: object";
    "$.windows.query.count: number";
    "$.windows.query.error_rate: number";
    "$.windows.query.errors: number";
    "$.windows.query.exemplars: array";
    "$.windows.query.exemplars[]: object";
    "$.windows.query.exemplars[].le: number";
    "$.windows.query.exemplars[].trace_id: string";
    "$.windows.query.exemplars[].ts_unix: number";
    "$.windows.query.exemplars[].value_ms: number";
    "$.windows.query.max_ms: number";
    "$.windows.query.mean_ms: number";
    "$.windows.query.p50_ms: number";
    "$.windows.query.p95_ms: number";
    "$.windows.query.p99_ms: number";
    "$.windows.query.qps: number";
    "$.windows.query.window_s: number";
    "$.windows.update: object";
    "$.windows.update.count: number";
    "$.windows.update.error_rate: number";
    "$.windows.update.errors: number";
    "$.windows.update.exemplars: array";
    "$.windows.update.max_ms: number";
    "$.windows.update.mean_ms: number";
    "$.windows.update.p50_ms: number";
    "$.windows.update.p95_ms: number";
    "$.windows.update.p99_ms: number";
    "$.windows.update.qps: number";
    "$.windows.update.window_s: number";
  ]

let golden_traces =
  [
    "$: object";
    "$.capacity: number";
    "$.seen: number";
    "$.traces: array";
    "$.traces[]: object";
    "$.traces[].duration_ms: number";
    "$.traces[].error: bool";
    "$.traces[].kept: string";
    "$.traces[].op: string";
    "$.traces[].query: string";
    "$.traces[].root: object";
    "$.traces[].root.attrs: map";
    "$.traces[].root.children: array";
    "$.traces[].root.duration_ms: number";
    "$.traces[].root.name: string";
    "$.traces[].span_id: string";
    "$.traces[].trace_id: string";
    "$.traces[].ts_unix: number";
  ]

let golden_timeseries =
  [
    "$: object";
    "$.now_unix: number";
    "$.point: string";
    "$.resolutions: array";
    "$.resolutions[]: object";
    "$.resolutions[].res_s: number";
    "$.resolutions[].series: map";
    "$.resolutions[].slots: number";
    "$.resolutions[].span_s: number";
    "$.series_kinds: map";
    "$.v: number";
  ]

let golden_alerts =
  [
    "$: object";
    "$.alerts: array";
    "$.alerts[]: object";
    "$.alerts[].bad_fast: number";
    "$.alerts[].bad_slow: number";
    "$.alerts[].burn_fast: number";
    "$.alerts[].burn_slow: number";
    "$.alerts[].fast_burn_threshold: number";
    "$.alerts[].fast_s: number";
    "$.alerts[].firing: bool";
    "$.alerts[].kind: string";
    "$.alerts[].name: string";
    "$.alerts[].op: string";
    "$.alerts[].since_unix: number";
    "$.alerts[].slow_burn_threshold: number";
    "$.alerts[].slow_s: number";
    "$.alerts[].state: string";
    "$.alerts[].target: number";
    "$.now_unix: number";
    "$.v: number";
  ]

let golden_domains =
  [
    "$: object";
    "$.engine: object";
    "$.engine.stale_reads: number";
    "$.engine.staleness: number";
    "$.epoch: number";
    "$.gc: object";
    "$.gc.by_domain: array";
    "$.gc.by_domain[]: object";
    "$.gc.by_domain[].domain: number";
    "$.gc.by_domain[].pause_us_max: number";
    "$.gc.by_domain[].pause_us_total: number";
    "$.gc.by_domain[].slices: number";
    "$.gc.domain_spawns: number";
    "$.gc.domain_stops: number";
    "$.graph_id: number";
    "$.pool: object";
    "$.pool.busy: number";
    "$.pool.queue_capacity: number";
    "$.pool.queue_depth: number";
    "$.pool.tasks: number";
    "$.pool.workers: number";
    "$.pool.writer_backlog: number";
    "$.pool.writer_submitted: number";
    "$.profile: object";
    "$.profile.dropped: number";
    "$.profile.folded: number";
    "$.profile.max_stacks: number";
    "$.profile.stacks: number";
    "$.workers: array";
    "$.workers[]: object";
    "$.workers[].busy_us: number";
    "$.workers[].domain_id: number";
    "$.workers[].idle_us: number";
    "$.workers[].tasks: number";
    "$.workers[].utilization: number";
    "$.workers[].worker: number";
  ]

(* Always-on /metrics families: the op-class windows, the alert gauges
   and the always-on registry cells. *)
let always_on_families =
  [
    "expfinder_window_seconds";
    "expfinder_window_requests";
    "expfinder_window_errors";
    "expfinder_qps";
    "expfinder_error_rate";
    "expfinder_latency_ms";
    "expfinder_alert_active";
    "expfinder_alert_burn";
    "expfinder_process_rss_bytes";
    "expfinder_uptime_seconds";
    "expfinder_engine_snapshot_stale_reads";
    "expfinder_engine_epoch_publish_lag_ms";
  ]

(* Prometheus text format: every [# TYPE] family has a [# HELP] line
   before it, every sample belongs to a typed family (a summary's
   [_sum]/[_count] to the summary), and every sample value parses. *)
let check_metrics_text body =
  let helped = Hashtbl.create 64 and typed = Hashtbl.create 64 in
  let family_of sample =
    let stop =
      match (String.index_opt sample '{', String.index_opt sample ' ') with
      | Some i, Some j -> min i j
      | Some i, None | None, Some i -> i
      | None, None -> String.length sample
    in
    String.sub sample 0 stop
  in
  let strip_suffix name suffix =
    let n = String.length name and k = String.length suffix in
    if n > k && String.sub name (n - k) k = suffix then Some (String.sub name 0 (n - k))
    else None
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [] | [ "" ] -> ()
      | "#" :: "HELP" :: name :: _ -> Hashtbl.replace helped name ()
      | [ "#"; "TYPE"; name; kind ] ->
        if not (Hashtbl.mem helped name) then
          Alcotest.failf "/metrics: TYPE before HELP for %s" name;
        Hashtbl.replace typed name kind
      | "#" :: _ -> ()
      | _ ->
        let family = family_of line in
        let owner =
          if Hashtbl.mem typed family then Some family
          else
            List.find_map
              (fun suffix ->
                match strip_suffix family suffix with
                | Some base when Hashtbl.find_opt typed base = Some "summary" -> Some base
                | _ -> None)
              [ "_sum"; "_count" ]
        in
        if owner = None then Alcotest.failf "/metrics: sample of an untyped family: %s" line;
        let value = List.hd (List.rev (String.split_on_char ' ' line)) in
        if not (List.mem value [ "NaN"; "+Inf"; "-Inf" ] || float_of_string_opt value <> None)
        then Alcotest.failf "/metrics: unparsable sample value: %s" line)
    (String.split_on_char '\n' body);
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem typed name) then Alcotest.failf "/metrics: HELP without TYPE for %s" name)
    helped;
  List.iter
    (fun family ->
      Alcotest.(check bool) (Printf.sprintf "/metrics family %s" family) true
        (Hashtbl.mem typed family))
    always_on_families

(* Collapsed stacks: one "stack count" line per stack, the stack
   without spaces and the count an integer. *)
let check_folded body =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  Alcotest.(check bool) "/profile.folded holds stacks" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ stack; count ] when stack <> "" && int_of_string_opt count <> None -> ()
      | _ -> Alcotest.failf "/profile.folded: malformed line %S" line)
    lines

(* The shapes of all eight HTTP endpoints after one query, one batch
   and one update on a two-domain pool, once the sampler has ticked.
   The workload fixes which arrays are non-empty: the query is the
   first request the trace store sees, so it alone is head-sampled and
   becomes the query window's exemplar. *)
let golden_e2e exe () =
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let socket = Filename.concat dir "serve.sock" in
      let qlog = Filename.concat dir "qlog.jsonl" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      with_server exe ~graph ~socket ~qlog
        ~extra_env:[ "EXPFINDER_SAMPLE_PERIOD_S=0.2"; "EXPFINDER_DOMAINS=2" ]
        (fun endpoint ->
          Server.with_connection endpoint (fun fd ->
              List.iter
                (fun req -> Alcotest.(check bool) "request ok" true (ok_of (request_exn fd req)))
                [
                  Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str paper_query) ];
                  Json.Obj
                    [
                      ("op", Json.Str "batch");
                      ("patterns", Json.Arr [ Json.Str paper_query; Json.Str paper_query ]);
                    ];
                  Json.Obj
                    [
                      ("op", Json.Str "update");
                      ( "ops",
                        Json.Arr
                          [ Json.Obj [ ("op", Json.Str "+"); ("u", Json.Int 1); ("v", Json.Int 5) ] ]
                      );
                    ];
                ]);
          let get path =
            match Server.http_get endpoint path with
            | Ok (200, body) -> body
            | Ok (status, _) -> Alcotest.failf "%s -> HTTP %d" path status
            | Error e -> Alcotest.failf "%s: %s" path e
          in
          let doc path =
            match Json.of_string (get path) with
            | Ok doc -> doc
            | Error e -> Alcotest.failf "%s does not parse: %s" path e
          in
          (* Wait for a sampler tick that saw the requests. *)
          let rec wait_tick attempts =
            if attempts = 0 then Alcotest.fail "sampler did not tick within 10s"
            else if not (contains (get "/timeseries.json") "\"req.update\"") then begin
              Unix.sleepf 0.1;
              wait_tick (attempts - 1)
            end
          in
          wait_tick 100;
          Alcotest.(check string) "/healthz body" "ok\n" (get "/healthz");
          check_metrics_text (get "/metrics");
          check_folded (get "/profile.folded");
          List.iter
            (fun (path, expected) ->
              Alcotest.(check (list string))
                (path ^ " shape")
                (List.sort_uniq compare expected)
                (json_shape (doc path)))
            [
              ("/stats.json", golden_stats);
              ("/traces.json", golden_traces);
              ("/timeseries.json", golden_timeseries);
              ("/alerts.json", golden_alerts);
              ("/domains.json", golden_domains);
            ];
          (* Interval profiling through the CLI: a reset read returns
             the stacks and clears them, so the next read holds none
             until another request is served. *)
          let code, out = run exe [ "get"; "--socket"; socket; "/profile.folded?reset=1" ] in
          Alcotest.(check int) "get /profile.folded?reset=1 exits 0" 0 code;
          check_folded out;
          Alcotest.(check string) "reset cleared the profile" "" (get "/profile.folded");
          Server.with_connection endpoint (fun fd ->
              Alcotest.(check bool) "query after the reset ok" true
                (ok_of
                   (request_exn fd
                      (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str paper_query) ]))));
          check_folded (get "/profile.folded");
          Server.with_connection endpoint (fun fd ->
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "shutdown") ]) in
              Alcotest.(check bool) "shutdown acknowledged" true (ok_of resp))))

(* Endpoint classification: path-shaped specs are always Unix sockets
   (even "/tmp/expfinder:1", whose suffix parses as a port, and the
   all-digit "./8080"); everything else tries bare-port then host:port. *)
let test_endpoint_of_string () =
  let show = function
    | Server.Unix_socket p -> "unix:" ^ p
    | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  in
  let check spec expected =
    match Server.endpoint_of_string spec with
    | Ok ep -> Alcotest.(check string) spec expected (show ep)
    | Error e -> Alcotest.failf "%s: unexpected error: %s" spec e
  in
  check "8080" "tcp:127.0.0.1:8080";
  check "example.org:8080" "tcp:example.org:8080";
  check ":8080" "tcp:127.0.0.1:8080";
  check "serve.sock" "unix:serve.sock";
  check "/tmp/expfinder.sock" "unix:/tmp/expfinder.sock";
  check "/tmp/expfinder:1" "unix:/tmp/expfinder:1";
  check "./8080" "unix:./8080";
  List.iter
    (fun spec ->
      match Server.endpoint_of_string spec with
      | Error _ -> ()
      | Ok ep -> Alcotest.failf "%S must be rejected, parsed as %s" spec (show ep))
    [ ""; "99999"; "host:99999" ]

let unit_suite =
  ("endpoint", [ Alcotest.test_case "endpoint_of_string" `Quick test_endpoint_of_string ])

(* A NaN sampling period is malformed: the server falls back to the
   1 s default instead of running the sampler back to back, so no 1 s
   slot of /timeseries.json merges more than 2 samples. *)
let nan_period_e2e exe () =
  with_tmpdir (fun dir ->
      let graph = Filename.concat dir "collab.graph" in
      let socket = Filename.concat dir "serve.sock" in
      let qlog = Filename.concat dir "qlog.jsonl" in
      let code, _ = run exe [ "gen"; "--kind"; "collab"; "-o"; graph ] in
      Alcotest.(check int) "gen exits 0" 0 code;
      with_server exe ~graph ~socket ~qlog ~extra_env:[ "EXPFINDER_SAMPLE_PERIOD_S=nan" ]
        (fun endpoint ->
          Unix.sleepf 2.5;
          let doc =
            match Server.http_get endpoint "/timeseries.json" with
            | Ok (200, body) -> (
              match Json.of_string body with
              | Ok doc -> doc
              | Error e -> Alcotest.failf "/timeseries.json does not parse: %s" e)
            | Ok (status, _) -> Alcotest.failf "/timeseries.json -> HTTP %d" status
            | Error e -> Alcotest.failf "/timeseries.json: %s" e
          in
          (* Points are [t_unix, last, sum, min, max, count]. *)
          let counts =
            match Option.bind (Json.member "resolutions" doc) Json.list_opt with
            | Some rings ->
              List.concat_map
                (fun ring ->
                  match (Json.member "res_s" ring, Json.member "series" ring) with
                  | Some (Json.Int 1), Some (Json.Obj series) ->
                    List.concat_map
                      (fun (_, points) ->
                        List.filter_map
                          (function Json.Arr [ _; _; _; _; _; Json.Int n ] -> Some n | _ -> None)
                          (Option.value ~default:[] (Json.list_opt points)))
                      series
                  | _ -> [])
                rings
            | None -> Alcotest.fail "/timeseries.json has no resolutions"
          in
          Alcotest.(check bool) "the sampler ticked" true (counts <> []);
          Alcotest.(check int) "1 s slots merging more than 2 samples" 0
            (List.length (List.filter (fun n -> n > 2) counts));
          Server.with_connection endpoint (fun fd ->
              let resp = request_exn fd (Json.Obj [ ("op", Json.Str "shutdown") ]) in
              Alcotest.(check bool) "shutdown acknowledged" true (ok_of resp))))

let () =
  match exe with
  | None ->
    print_endline "expfinder.exe not built; running only the unit tests";
    Alcotest.run "serve" [ unit_suite ]
  | Some exe ->
    Alcotest.run "serve"
      [
        unit_suite;
        ( "e2e",
          [
            Alcotest.test_case "serve/observe/replay" `Quick (serve_e2e exe);
            Alcotest.test_case "get /stats.json over TCP" `Quick (get_tcp_e2e exe);
            Alcotest.test_case "served signals agree by default" `Quick
              (served_signals_e2e exe);
            Alcotest.test_case "SIGTERM exits and leaves no events ring" `Quick
              (sigterm_e2e exe);
            Alcotest.test_case "served digests = direct evaluation" `Quick (digest_e2e exe);
            Alcotest.test_case "trace propagation over unix socket" `Quick
              (trace_e2e ~tcp:false exe);
            Alcotest.test_case "trace propagation over TCP" `Quick
              (trace_e2e ~tcp:true exe);
            Alcotest.test_case "endpoint golden shapes" `Quick (golden_e2e exe);
            Alcotest.test_case "NaN sample period falls back to 1 s" `Quick
              (nan_period_e2e exe);
          ] );
      ]
