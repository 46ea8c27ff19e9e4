open Expfinder_engine
open Expfinder_telemetry

(** The serving path: a socket server answering newline-delimited JSON
    requests against one {!Expfinder_engine} instance, plus a minimal
    HTTP responder for the observability endpoints.  With one domain
    (the default on a single-core host without [EXPFINDER_DOMAINS]) it
    is the historical single-threaded loop; with more it serves
    connections from a pool of worker domains over a bounded queue (see
    {!serve}).

    Protocol sniffing: the first line of each connection decides how it
    is handled.  [GET]/[HEAD] request lines get a one-shot HTTP answer
    ([/metrics] in Prometheus text format with OpenMetrics-style
    [# EXEMPLAR] annotations, [/healthz], [/stats.json],
    [/traces.json] — the in-process {!Tracestore} document —
    [/timeseries.json] — the multi-resolution retention rings, capped
    at 120 points per series per resolution — and [/alerts.json] — the
    current SLO burn-rate alert states) and the connection closes; any
    other first line starts a JSONL
    request loop — one JSON object per line in, one per line out —
    until the client disconnects or sends [{"op": "shutdown"}].

    Request ops: [query] (field [pattern]: {!Expfinder_pattern.Pattern_io}
    text), [batch] (field [patterns]: array of pattern texts), [update]
    (field [ops]: array of {!Expfinder_incremental.Update.to_json}
    objects), [ping], [stats] and [shutdown].  Every response carries
    ["ok": bool]; failures carry ["error": string] and never kill the
    server.  Query/batch responses include the answer [digest]
    (read from the answer's memo, {!Expfinder_engine.Engine.answer}),
    so clients can cross-check replays.

    Request tracing: every [query]/[batch]/[update] request runs under
    an explicit {!Trace.ctx}.  A request may propagate one in a
    ["trace"] field (the {!Trace.to_wire} or W3C traceparent form);
    anything absent or malformed means a freshly minted context —
    propagation failures never fail a request.  The trace id is
    returned as ["trace_id"] on both success and error responses,
    stamped into qlog/recorder events, offered to the {!Tracestore}
    and — when admitted — advertised as a latency-histogram exemplar.
    On the HTTP side a [traceparent] request header is honoured the
    same way (malformed → fresh mint) and the adopted-or-minted
    context is echoed back as a [traceparent] response header.

    Execution model: connections are dispatched to worker domains (one
    request at a time per connection), reads evaluate against the
    engine's atomically-published snapshot epoch without ever blocking
    on writers, and the worker that reads an update batch calls
    {!Engine.apply_updates} itself: the engine's writer lock serializes
    the batches and publishes each new epoch.  With [domains = 1]
    everything runs in the accept loop, which is the historical
    sequential consistency model. *)

type endpoint = Unix_socket of string | Tcp of string * int

val endpoint_of_string : string -> (endpoint, string) result
(** A spec containing ['/'] or starting with ['.'] is always a
    Unix-domain socket path (so ["/tmp/x:1"] and ["./8080"] are
    sockets); otherwise ["8080"] and ["host:8080"] parse as TCP (the
    bare-port form binds [127.0.0.1]) and anything else is a socket
    path. *)

val endpoint_to_string : endpoint -> string

val serve :
  ?max_connections:int ->
  ?sample_period:float ->
  ?domains:int ->
  ?on_listen:(unit -> unit) ->
  Engine.t ->
  endpoint ->
  unit
(** Bind, listen and answer connections until a client sends
    [{"op": "shutdown"}] (or [max_connections] connections have been
    served — a test hook).  [on_listen] runs once the socket is bound
    and listening, before the first [accept] (the CLI prints its
    readiness line there).  A pre-existing Unix-socket path is removed
    before binding and the path is unlinked on exit; TCP sockets set
    [SO_REUSEADDR].  Per-connection read timeout: 30s.

    [?domains] (default [EXPFINDER_DOMAINS], else
    [Domain.recommended_domain_count () - 1], floored at 1) selects the
    execution model.  [1]: the historical single-threaded loop —
    connections handled inside [accept].  [> 1]: a pool of [domains]
    worker domains serves connections dispatched over a bounded work
    queue.  Either way update batches are applied in place, on the
    domain serving the connection, under the engine's writer lock;
    readers never block on writers — they evaluate on the snapshot
    epoch pinned at request start.  On shutdown the pool is drained
    (in-flight connections finish), then the sampler thread is
    joined.
    @raise Failure when the pool cannot be spawned (see
    {!Expfinder_parallel.Pool.create}); the socket is released first.

    A background sampler thread ticks every [sample_period] seconds
    (default 1.0; [<= 0.] disables it): each tick feeds the shared
    {!Timeseries} store (and its JSONL sink, when configured) and
    re-evaluates the {!Slo} burn-rate alerts.  The thread is joined on
    shutdown.  If an exception escapes the accept loop, a {!Postmortem}
    artifact is written (when [EXPFINDER_POSTMORTEM_DIR] is set) before
    the exception propagates.

    HTTP paths: [/metrics], [/healthz], [/stats.json], [/traces.json],
    [/timeseries.json], [/alerts.json], [/domains.json] and
    [/profile.folded] (collapsed-stack text; [?reset=1] returns the
    accumulated profile and then clears it). *)

(** {1 Client helpers} (used by [expfinder client]/[get]/[trace] and
    the serve tests) *)

val with_connection : endpoint -> (Unix.file_descr -> 'a) -> 'a
(** Connect, run, and always close the socket. *)

val request : Unix.file_descr -> Json.t -> (Json.t, string) result
(** Send one JSONL request on an open connection and read the one-line
    response. *)

val http_get : endpoint -> string -> (int * string, string) result
(** One-shot [GET path]: connect, request, drain headers, and return
    [(status, body)]. *)
