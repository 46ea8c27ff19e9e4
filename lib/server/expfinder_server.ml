open Expfinder_graph
open Expfinder_pattern
open Expfinder_incremental
open Expfinder_engine
open Expfinder_telemetry
module Parallel = Expfinder_parallel

let src = Logs.Src.create "expfinder.server" ~doc:"ExpFinder serving loop"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Endpoints *)

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_of_string spec =
  if spec = "" then Error "endpoint: empty spec"
  else if String.contains spec '/' || spec.[0] = '.' then
    (* Anything path-shaped is a Unix socket, before host:port parsing:
       "/tmp/expfinder:1" is a socket named with a colon, not host
       "/tmp/expfinder" port 1, and "./8080" lets an all-digit name be a
       socket path at all. *)
    Ok (Unix_socket spec)
  else
    match int_of_string_opt spec with
    | Some port when port > 0 && port < 65536 -> Ok (Tcp ("127.0.0.1", port))
    | Some port -> Error (Printf.sprintf "endpoint: port %d out of range" port)
    | None -> (
      match String.rindex_opt spec ':' with
      | Some i when i < String.length spec - 1 -> (
        let host = String.sub spec 0 i in
        let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt rest with
        | Some port when port > 0 && port < 65536 ->
          Ok (Tcp ((if host = "" then "127.0.0.1" else host), port))
        | Some port -> Error (Printf.sprintf "endpoint: port %d out of range" port)
        | None -> Ok (Unix_socket spec))
      | _ -> Ok (Unix_socket spec))

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let addr =
      match Unix.inet_addr_of_string host with
      | addr -> addr
      | exception _ -> (
        match (Unix.gethostbyname host).h_addr_list with
        | [||] -> failwith (Printf.sprintf "endpoint: cannot resolve %S" host)
        | addrs -> addrs.(0)
        | exception Not_found -> failwith (Printf.sprintf "endpoint: cannot resolve %S" host))
    in
    Unix.ADDR_INET (addr, port)

(* ------------------------------------------------------------------ *)
(* Stats document *)

(* Pool / writer summary read back from the registry cells the pool
   and the engine publish.  Reading through [Metrics.gauge]
   mints a zero cell when the pool was never started (single-domain
   serving), which reads as the honest "no workers" answer.  The writer
   is the engine's writer lock: its backlog is the update batches
   waiting for it, its submissions the update window's lifetime
   total. *)
let reg_gauge name = Gauge.value (Metrics.gauge name)

let reg_counter name = Counter.value (Metrics.counter name)

let pool_json () =
  Json.Obj
    [
      ("workers", Json.Int (reg_gauge "pool.workers"));
      ("busy", Json.Int (reg_gauge "pool.busy"));
      ("queue_depth", Json.Int (reg_gauge "chan.pool.jobs.depth"));
      ("queue_capacity", Json.Int (reg_gauge "pool.queue_capacity"));
      ("tasks", Json.Int (reg_counter "pool.tasks"));
      ("writer_backlog", Json.Int (reg_gauge "engine.writer.backlog"));
      ("writer_submitted", Json.Int (fst (Window.totals (Window.get "update"))));
    ]

let stats_json engine =
  let snap = Engine.snapshot engine in
  let windows =
    List.map (fun (name, w) -> (name, Window.to_json w)) (Window.all ())
  in
  Json.Obj
    [
      ("graph_id", Json.Int (Snapshot.graph_id snap));
      ("epoch", Json.Int (Snapshot.epoch snap));
      ("windows", Json.Obj windows);
      ("pool", pool_json ());
      ("process", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (process_stats ())));
      ("alerts", Slo.to_json ());
      ("metrics", Metrics.to_json ());
      ("recorder", Recorder.to_json ());
    ]

(* Per-domain document behind [/domains.json]: worker utilization
   split per pool domain, per-domain GC pause totals, the engine's
   contention counters, and the continuous profiler's health. *)
let domains_json engine =
  let snap = Engine.snapshot engine in
  let worker i =
    let p field = Printf.sprintf "pool.worker%d.%s" i field in
    let busy = reg_counter (p "busy_us") and idle = reg_counter (p "idle_us") in
    let util =
      if busy + idle <= 0 then 0.0
      else float_of_int busy /. float_of_int (busy + idle)
    in
    Json.Obj
      [
        ("worker", Json.Int i);
        ("domain_id", Json.Int (reg_gauge (p "domain_id")));
        ("tasks", Json.Int (reg_counter (p "tasks")));
        ("busy_us", Json.Int busy);
        ("idle_us", Json.Int idle);
        ("utilization", Json.Float util);
      ]
  in
  let gc_domain (d : Gcpause.domain_totals) =
    Json.Obj
      [
        ("domain", Json.Int d.Gcpause.domain);
        ("pause_us_total", Json.Int d.Gcpause.pause_us_total);
        ("pause_us_max", Json.Int d.Gcpause.pause_us_max);
        ("slices", Json.Int d.Gcpause.slices);
      ]
  in
  Json.Obj
    [
      ("graph_id", Json.Int (Snapshot.graph_id snap));
      ("epoch", Json.Int (Snapshot.epoch snap));
      ("pool", pool_json ());
      ("workers", Json.Arr (List.init (max 0 (reg_gauge "pool.workers")) worker));
      ( "gc",
        Json.Obj
          [
            ("domain_spawns", Json.Int (Gcpause.domain_spawns ()));
            ("domain_stops", Json.Int (Gcpause.domain_stops ()));
            ("by_domain", Json.Arr (List.map gc_domain (Gcpause.by_domain ())));
          ] );
      ( "engine",
        Json.Obj
          [
            ("stale_reads", Json.Int (reg_counter "engine.snapshot.stale_reads"));
            ("staleness", Json.Int (reg_gauge "engine.snapshot.staleness"));
          ] );
      ("profile", Profile.to_json ());
    ]

(* ------------------------------------------------------------------ *)
(* Request handling (one JSON object per line) *)

let provenance_name : Engine.provenance -> string = function
  | From_cache -> "cache"
  | From_compressed -> "compressed"
  | Direct -> "direct"

let error_response ?trace_id msg =
  Json.Obj
    (("ok", Json.Bool false)
    :: ("error", Json.Str msg)
    :: (match trace_id with Some t -> [ ("trace_id", Json.Str t) ] | None -> []))

(* The request's trace context: adopt a well-formed "trace" field (the
   compact or W3C traceparent wire form), mint a fresh context for
   everything else — including malformed values, because tracing must
   never fail a request.  Serving-path requests are always sampled:
   span trees must not depend on the process-wide telemetry flag, and
   only traces admitted by the store retain theirs. *)
let ctx_of_request req =
  match Option.bind (Json.member "trace" req) Json.str_opt with
  | Some s -> (
    match Trace.of_wire ~sampled:true s with
    | Some ctx -> ctx
    | None -> Trace.make ~sampled:true ())
  | None -> Trace.make ~sampled:true ()

let answer_fields (a : Engine.answer) =
  [
    ("pairs", Json.Int a.pairs);
    ("total", Json.Bool a.total);
    ("provenance", Json.Str (provenance_name a.provenance));
    ("digest", Json.Str (Lazy.force a.digest));
  ]

type reply = Reply of Json.t | Reply_and_stop of Json.t

(* Exact pattern text -> its parse, one memo per server.  It pays only
   where clients resend the exact same text, as a client replaying a
   fixed pool of patterns does: a parse costs tens of microseconds
   against a few for the cached answer it leads to.  A text is admitted
   on its second sighting, recorded by its hash in [seen], so traffic
   of distinct texts never fills the memo and keeps nothing alive.
   Only texts up to [parse_memo_text_limit] bytes are kept, at most
   [parse_memo_capacity] of them; a full memo is emptied and refilled
   rather than tracking recency.  Pool workers share it under its
   mutex. *)
let parse_memo_capacity = 256

let parse_memo_seen_slots = 1024

let parse_memo_text_limit = 4096

type parse_memo = {
  parses : (string, (Pattern.t, string) result) Hashtbl.t;
  seen : int array;  (** hash of the last missed text, by hash mod slots *)
  parses_lock : Mutex.t;
}

let parse_memo () =
  {
    parses = Hashtbl.create 64;
    seen = Array.make parse_memo_seen_slots (-1);
    parses_lock = Mutex.create ();
  }

type memo_lookup = Hit of (Pattern.t, string) result | Miss of { admit : bool }

let parse_pattern memo text =
  if String.length text > parse_memo_text_limit then Pattern_io.of_string text
  else
    let lookup =
      Mutex.protect memo.parses_lock (fun () ->
          match Hashtbl.find_opt memo.parses text with
          | Some parsed -> Hit parsed
          | None ->
            let h = Hashtbl.hash text in
            let slot = h mod parse_memo_seen_slots in
            let seen_before = memo.seen.(slot) = h in
            memo.seen.(slot) <- h;
            Miss { admit = seen_before })
    in
    match lookup with
    | Hit parsed -> parsed
    | Miss { admit } ->
      let parsed = Pattern_io.of_string text in
      if admit then
        Mutex.protect memo.parses_lock (fun () ->
            if Hashtbl.length memo.parses >= parse_memo_capacity then Hashtbl.reset memo.parses;
            Hashtbl.replace memo.parses text parsed);
      parsed

(* An update batch is applied on the domain that read it: the engine's
   writer lock serializes batches from every connection. *)
let handle_request engine ~memo line =
  match Json.of_string line with
  | Error e -> Reply (error_response ("bad request: " ^ e))
  | Ok req -> (
    let op =
      match Option.bind (Json.member "op" req) Json.str_opt with
      | Some op -> op
      | None -> "query" (* bare {"pattern": ...} defaults to a query *)
    in
    match op with
    | "ping" -> Reply (Json.Obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ])
    | "stats" -> Reply (stats_json engine)
    | "shutdown" ->
      Reply_and_stop (Json.Obj [ ("ok", Json.Bool true); ("shutdown", Json.Bool true) ])
    | "query" -> (
      match Option.bind (Json.member "pattern" req) Json.str_opt with
      | None -> Reply (error_response "query: missing string field \"pattern\"")
      | Some text -> (
        match parse_pattern memo text with
        | Error e -> Reply (error_response ("query: " ^ e))
        | Ok pattern -> (
          let ctx = ctx_of_request req in
          let trace_id = ctx.Trace.trace_id in
          match Engine.evaluate ~trace:ctx engine pattern with
          | answer ->
            Reply
              (Json.Obj
                 (("ok", Json.Bool true)
                 :: ("trace_id", Json.Str trace_id)
                 :: answer_fields answer))
          | exception e ->
            Reply (error_response ~trace_id ("query: " ^ Printexc.to_string e)))))
    | "batch" -> (
      let patterns =
        match Option.bind (Json.member "patterns" req) Json.list_opt with
        | None -> Error "batch: missing array field \"patterns\""
        | Some items ->
          List.fold_left
            (fun acc item ->
              match (acc, Json.str_opt item) with
              | Error e, _ -> Error e
              | Ok _, None -> Error "batch: patterns must be strings"
              | Ok l, Some text -> (
                match parse_pattern memo text with
                | Ok p -> Ok (p :: l)
                | Error e -> Error ("batch: " ^ e)))
            (Ok []) items
          |> Result.map List.rev
      in
      match patterns with
      | Error e -> Reply (error_response e)
      | Ok patterns -> (
        let ctx = ctx_of_request req in
        let trace_id = ctx.Trace.trace_id in
        match Engine.evaluate_batch ~trace:ctx engine patterns with
        | answers ->
          Reply
            (Json.Obj
               [
                 ("ok", Json.Bool true);
                 ("trace_id", Json.Str trace_id);
                 ("answers", Json.Arr (List.map (fun a -> Json.Obj (answer_fields a)) answers));
               ])
        | exception e -> Reply (error_response ~trace_id ("batch: " ^ Printexc.to_string e))))
    | "update" -> (
      let ops =
        match Option.bind (Json.member "ops" req) Json.list_opt with
        | None -> Error "update: missing array field \"ops\""
        | Some items ->
          List.fold_left
            (fun acc item ->
              match acc with
              | Error e -> Error e
              | Ok l -> Result.map (fun u -> u :: l) (Update.of_json item))
            (Ok []) items
          |> Result.map List.rev
      in
      match ops with
      | Error e -> Reply (error_response e)
      | Ok ops -> (
        let ctx = ctx_of_request req in
        let trace_id = ctx.Trace.trace_id in
        match Engine.apply_updates ~trace:ctx engine ops with
        | reports ->
          Reply
            (Json.Obj
               [
                 ("ok", Json.Bool true);
                 ("trace_id", Json.Str trace_id);
                 ("epoch", Json.Int (Snapshot.epoch (Engine.snapshot engine)));
                 ("maintained", Json.Int (List.length reports));
               ])
        | exception e -> Reply (error_response ~trace_id ("update: " ^ Printexc.to_string e))))
    | op -> Reply (error_response (Printf.sprintf "unknown op %S" op)))

(* ------------------------------------------------------------------ *)
(* Minimal HTTP responder (GET/HEAD only) *)

let http_response ~status ~content_type ?(headers = []) body =
  let reason = match status with
    | 200 -> "OK"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | _ -> "Error"
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n%s"
    status reason content_type (String.length body)
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
    body

let http_reply engine ~meth ~path ~ctx =
  (* Split off a query string: only /profile.folded?reset=1 uses one
     today, but every path tolerates it. *)
  let path, query =
    match String.index_opt path '?' with
    | Some i ->
      ( String.sub path 0 i,
        String.sub path (i + 1) (String.length path - i - 1) )
    | None -> (path, "")
  in
  let query_flag name =
    List.exists
      (fun kv -> kv = name || kv = name ^ "=1" || kv = name ^ "=true")
      (String.split_on_char '&' query)
  in
  let status, content_type, body =
    match path with
    | "/metrics" -> (200, "text/plain; version=0.0.4; charset=utf-8", Prometheus.render ())
    | "/healthz" -> (200, "text/plain; charset=utf-8", "ok\n")
    | "/stats.json" ->
      (200, "application/json; charset=utf-8", Json.to_string ~pretty:true (stats_json engine))
    | "/traces.json" ->
      ( 200,
        "application/json; charset=utf-8",
        Json.to_string ~pretty:true (Tracestore.to_json ()) )
    | "/timeseries.json" ->
      (* Cap the per-series tails so the document stays a few hundred
         KB even after hours of retention; postmortems carry the same
         cap, and the full history lives in the JSONL sink. *)
      ( 200,
        "application/json; charset=utf-8",
        Json.to_string ~pretty:true (Timeseries.to_json ~max_points:120 Timeseries.shared) )
    | "/alerts.json" ->
      (200, "application/json; charset=utf-8", Json.to_string ~pretty:true (Slo.to_json ()))
    | "/domains.json" ->
      ( 200,
        "application/json; charset=utf-8",
        Json.to_string ~pretty:true (domains_json engine) )
    | "/profile.folded" ->
      (* Collapsed-stack text for flamegraph.pl / speedscope.  With
         ?reset=1 the accumulated profile is returned and cleared under
         one lock, so a scraper gets interval profiles without losing
         data. *)
      (200, "text/plain; charset=utf-8", Profile.to_folded ~reset:(query_flag "reset") ())
    | _ -> (404, "text/plain; charset=utf-8", Printf.sprintf "no such path: %s\n" path)
  in
  let body = if meth = "HEAD" then "" else body in
  (* Echo the request's context (adopted or freshly minted) so a caller
     that propagated a traceparent can correlate the scrape. *)
  http_response ~status ~content_type ~headers:[ ("traceparent", Trace.to_traceparent ctx) ]
    body

(* ------------------------------------------------------------------ *)
(* Connection loop *)

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.of_string s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

(* Serve one connection.  The first line decides the protocol: an HTTP
   request line ("GET /metrics HTTP/1.1") gets a one-shot HTTP answer;
   anything else starts a JSONL request loop that runs until the client
   closes or sends {"op": "shutdown"}.  Returns [false] when the server
   should stop accepting. *)
let handle_connection engine ~memo fd =
  let ic = Unix.in_channel_of_descr fd in
  let continue = ref true in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        match In_channel.input_line ic with
        | None -> ()
        | Some first ->
          let words = String.split_on_char ' ' (String.trim first) in
          (match words with
          | [ meth; path; _version ] when meth = "GET" || meth = "HEAD" ->
            (* Drain the request headers (so the client sees a clean
               close), keeping the traceparent value if one arrives: a
               well-formed header is adopted as the scrape's context, a
               malformed one falls back to a freshly minted context —
               never an error. *)
            let rec drain traceparent =
              match In_channel.input_line ic with
              | None -> traceparent
              | Some line when String.trim line = "" -> traceparent
              | Some line -> (
                match String.index_opt line ':' with
                | Some i
                  when String.lowercase_ascii (String.trim (String.sub line 0 i))
                       = "traceparent" ->
                  drain
                    (Some (String.trim (String.sub line (i + 1) (String.length line - i - 1))))
                | Some _ | None -> drain traceparent)
            in
            let ctx =
              match drain None with
              | Some v -> (
                match Trace.of_wire v with Some c -> c | None -> Trace.make ())
              | None -> Trace.make ()
            in
            write_all fd (http_reply engine ~meth ~path ~ctx)
          | (("GET" | "HEAD" | "POST" | "PUT" | "DELETE") :: _) ->
            write_all fd
              (http_response ~status:405 ~content_type:"text/plain" "GET or HEAD only\n")
          | _ ->
            let rec loop line =
              if String.trim line <> "" then begin
                match handle_request engine ~memo line with
                | Reply json -> write_all fd (Json.to_string json ^ "\n")
                | Reply_and_stop json ->
                  write_all fd (Json.to_string json ^ "\n");
                  continue := false
              end;
              if !continue then
                match In_channel.input_line ic with
                | Some next -> loop next
                | None -> ()
            in
            loop first)
      with
      (* A dead, wedged or misbehaving client must only cost its own
         connection.  Channel reads surface the SO_RCVTIMEO receive
         timeout as Sys_blocked_io or Sys_error (not Unix_error), so
         both must land here rather than escape and kill the accept
         loop. *)
      | End_of_file | Sys_blocked_io -> ()
      | Sys_error _ -> ()
      | Unix.Unix_error _ -> ());
  !continue

let serve ?(max_connections = max_int) ?(sample_period = 1.0)
    ?(domains = Parallel.default_pool_domains ()) ?on_listen engine endpoint =
  let sock = Unix.socket (Unix.domain_of_sockaddr (sockaddr endpoint)) Unix.SOCK_STREAM 0 in
  (match endpoint with
  | Unix_socket path -> if Sys.file_exists path then Sys.remove path
  | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
  Unix.bind sock (sockaddr endpoint);
  Unix.listen sock 16;
  let release_socket () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    match endpoint with
    | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()
  in
  (* With one domain the server behaves exactly as the historical
     single-threaded loop: connections handled in the accept loop.  With
     more, connections are dispatched to a pool of worker domains over a
     bounded queue.  Either way a connection's requests, update batches
     included, run on the domain that handles it: the engine's writer
     lock serializes the batches, and readers keep serving their pinned
     epoch meanwhile.  A pool that cannot be spawned (more domains than
     the runtime allows) fails the call before anything is served. *)
  let pool =
    if domains <= 1 then None
    else
      match
        Parallel.Pool.create ~domains
          ~on_error:(fun e ->
            Log.err (fun m -> m "connection handler: %s" (Printexc.to_string e)))
          ()
      with
      | pool -> Some pool
      | exception e ->
        release_socket ();
        raise e
  in
  (* The sampler thread drives long-horizon telemetry: one tick per
     period pulls windows, process gauges and counters into the shared
     timeseries, then re-evaluates the SLO burn rates.  A tick must
     never take the serving loop down, so it swallows everything.  It is joined on shutdown (the stop flag is
     polled in <= 0.1s slices so the join is prompt even with long
     sample periods). *)
  let stop_sampler = Atomic.make false in
  let sampler =
    if sample_period <= 0.0 then None
    else
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get stop_sampler) do
               (try
                  ignore (Timeseries.sample Timeseries.shared : (string * float) list);
                  ignore (Slo.evaluate () : Slo.alert list)
                with _ -> ());
               let rec nap left =
                 if left > 0.0 && not (Atomic.get stop_sampler) then begin
                   let slice = if left < 0.1 then left else 0.1 in
                   Thread.delay slice;
                   nap (left -. slice)
                 end
               in
               nap sample_period
             done)
           ())
  in
  (match on_listen with Some f -> f () | None -> ());
  Log.info (fun m ->
      m "serving on %s (%d domain%s)" (endpoint_to_string endpoint) domains
        (if domains = 1 then "" else "s"));
  (* [stopping] is the cross-domain stop signal: a worker answering
     {"op": "shutdown"} sets it and wakes the accept loop with a dummy
     connection. *)
  let stopping = Atomic.make false in
  let served = ref 0 in
  let wake () =
    match
      let addr = sockaddr endpoint in
      let s = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
        (fun () -> Unix.connect s addr)
    with
    | () -> ()
    | exception _ -> ()
  in
  let memo = parse_memo () in
  let handle client =
    if not (handle_connection engine ~memo client) then begin
      Atomic.set stopping true;
      if pool <> None then wake ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* Drain in-flight connections; join the sampler last. *)
      (match pool with Some p -> Parallel.Pool.shutdown p | None -> ());
      Atomic.set stop_sampler true;
      (match sampler with Some th -> Thread.join th | None -> ());
      release_socket ())
    (fun () ->
      try
        while (not (Atomic.get stopping)) && !served < max_connections do
          match Unix.accept sock with
          | client, _addr ->
            incr served;
            (* A wedged client must not hang its handler forever. *)
            (try Unix.setsockopt_float client Unix.SO_RCVTIMEO 30.0 with Unix.Unix_error _ -> ());
            if Atomic.get stopping then (
              try Unix.close client with Unix.Unix_error _ -> ())
            else (
              match pool with
              | Some p -> Parallel.Pool.submit p (fun () -> handle client)
              | None -> handle client)
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            (* Transient accept failures (interrupted, client gone before the
               handshake finished) must not stop the service. *)
            ()
        done
      with e ->
        (* An exception escaping the accept loop is a server crash:
           leave a postmortem artifact (when EXPFINDER_POSTMORTEM_DIR is
           configured) before letting it propagate. *)
        ignore
          (Postmortem.write ~reason:("uncaught exception: " ^ Printexc.to_string e) ()
            : string option);
        raise e)

(* ------------------------------------------------------------------ *)
(* Client side *)

let with_connection endpoint f =
  let addr = sockaddr endpoint in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      f sock)

let request fd json =
  write_all fd (Json.to_string json ^ "\n");
  let ic = Unix.in_channel_of_descr fd in
  match In_channel.input_line ic with
  | None -> Error "connection closed before a response arrived"
  | Some line -> Json.of_string line

let http_get endpoint path =
  with_connection endpoint (fun fd ->
      write_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nHost: expfinder\r\nConnection: close\r\n\r\n" path);
      let ic = Unix.in_channel_of_descr fd in
      match In_channel.input_line ic with
      | None -> Error "connection closed before a response arrived"
      | Some status_line -> (
        match String.split_on_char ' ' (String.trim status_line) with
        | _http :: code :: _ -> (
          match int_of_string_opt code with
          | None -> Error (Printf.sprintf "bad status line: %s" status_line)
          | Some status ->
            let rec drain_headers () =
              match In_channel.input_line ic with
              | None -> ()
              | Some line when String.trim line = "" -> ()
              | Some _ -> drain_headers ()
            in
            drain_headers ();
            let body = In_channel.input_all ic in
            Ok (status, body))
        | _ -> Error (Printf.sprintf "bad status line: %s" status_line)))
