(** Engine-wide observability: a metrics registry, a span tracer, and
    wall-clock helpers.

    - {e counters, gauges and histograms} always record.  Recording
      never allocates: counters and gauges are atomic ints, histogram
      state lives in pre-allocated arrays behind a per-histogram mutex.
    - {e spans} ({!Trace.collect}, {!with_span}) record only for a
      sampled context, or for any context while {!set_enabled} is on;
      otherwise [with_span] is one branch around the wrapped function.

    Naming scheme (see DESIGN.md): metric and span names are dotted
    lowercase paths, [<module>.<event>] — e.g. [bsim.worklist_pops],
    [cache.evictions], spans [plan], [candidates], [refine], [rank]. *)

val set_enabled : bool -> unit
(** Whether {!Trace.collect} records spans for a context that is not
    sampled (default: off).  This is all the switch does: metric cells
    record either way, and a sampled context records spans either
    way. *)

val enabled : unit -> bool

(** {1 JSON}

    A dependency-free JSON value with an emitter and a parser: the
    serialization substrate for metric dumps, span trees, bench reports
    and flight-recorder dumps. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : ?pretty:bool -> t -> string
  (** Serialize.  Non-finite floats become [null]; strings are escaped.
      [~pretty:true] indents with two spaces and ends with a newline. *)

  val of_string : string -> (t, string) result
  (** Parse a complete JSON document (trailing garbage is an error). *)

  val member : string -> t -> t option
  (** Field lookup on an [Obj]; [None] on other constructors. *)

  val str_opt : t -> string option

  val int_opt : t -> int option

  val list_opt : t -> t list option
end

(** {1 Metrics} *)

module Counter : sig
  type t

  val create : string -> t
  (** A standalone (unregistered) counter. *)

  val incr : t -> unit

  val add : t -> int -> unit
  (** Monotonic: saturates at [max_int] instead of wrapping.  The cell
      is atomic, so concurrent increments from worker domains are never
      lost and totals stay exact. *)

  val value : t -> int

  val reset : t -> unit
end

module Gauge : sig
  type t

  val set : t -> int -> unit

  val add : t -> int -> unit
  (** [add g n] moves the gauge by [n] atomically, so a level kept by
      paired [+1]/[-1] calls from several domains stays exact. *)

  val value : t -> int
end

module Histogram : sig
  (** Log-scale histogram: geometric buckets with 8 buckets per doubling
      (~9% relative resolution), covering 1e-9 .. 1e12.  Count, sum, min
      and max are tracked exactly; percentiles are resolved to a bucket
      upper bound.  All operations are serialized by a per-histogram
      mutex, so observations may arrive from any domain. *)

  type t

  val create : string -> t
  (** A standalone (unregistered) histogram. *)

  val observe : t -> float -> unit
  (** Record a sample (non-positive samples land in the lowest bucket).
      Does not allocate. *)

  val count : t -> int

  val percentile : t -> float -> float
  (** [percentile h p] for [0 <= p <= 1]; [nan] when empty.  Clamped to
      the exact [min]/[max]. *)
end

module Metrics : sig
  (** The process-wide registry.  [counter]/[gauge]/[histogram] create
      or return the metric registered under that name; asking for an
      existing name with a different metric kind raises
      [Invalid_argument].

      Registry operations (lookup-or-create, enumeration, reset) are
      serialized by an internal mutex: the sampler thread scrapes the
      registry while connection handlers register metrics lazily.
      Bumping an already-obtained [Counter.t]/[Gauge.t] stays
      lock-free. *)

  val counter : string -> Counter.t

  val gauge : string -> Gauge.t

  val histogram : string -> Histogram.t

  val counters_snapshot : unit -> (string * int) list
  (** Current value of every registered counter and gauge, sorted by
      name (the per-query profile diff base).  The registry keeps these
      cells in a name-ordered array, rebuilt only when a counter or
      gauge is first registered, so a snapshot is one pass of atomic
      reads with no sort. *)

  val delta :
    before:(string * int) list -> after:(string * int) list -> (string * int) list
  (** Nonzero differences [after - before], sorted by name: a merge
      walk, so both lists must be sorted by name with each name once,
      as {!counters_snapshot} returns them.  A name only in [after]
      counts from zero; a name only in [before] is left out. *)

  val reset_all : unit -> unit
  (** Reset every registered metric to zero (tests, [expfinder stats]). *)

  val pp : Format.formatter -> unit -> unit
  (** Dump the registry, one metric per line, sorted by name. *)

  val to_json : unit -> Json.t
  (** The registry as one object, sorted by name: counters and gauges as
      [{kind; value}], histograms as [{kind; count; sum; min; max; p50;
      p95; p99}] (the [expfinder stats --json] dump). *)
end

(** {1 Span tracing} *)

module Span : sig
  (** A completed timed span: a name, a duration, optional key/value
      annotations, and child spans in execution order. *)

  type t

  val duration_ms : t -> float

  val pp_tree : Format.formatter -> t -> unit
  (** Human-readable indented stage tree with timings and
      annotations. *)

  val to_chrome_json : ?trace_id:string -> ?span_id:string -> t -> string
  (** The tree as a Chrome trace-event JSON array ([ph:"X"] complete
      events, microsecond timestamps), loadable in [chrome://tracing]
      or [ui.perfetto.dev].  When a trace/span id is supplied, the
      export's [pid]/[tid] lanes are derived from them so concurrent
      requests land in distinct lanes; without one the historical
      [pid:1, tid:1] output is preserved byte-for-byte. *)

  val to_json : t -> Json.t
  (** The tree as a nested [{name; duration_ms; attrs; children}]
      object (the report/profile serialization, unlike the flat
      Chrome-event array of {!to_chrome_json}). *)

end

(** {1 Request trace contexts}

    Explicit, immutable per-request identity: a 128-bit trace id plus a
    64-bit root-span id, minted when a request enters the system (or
    adopted from the wire) and threaded by value through the engine,
    the query log, the flight recorder and the trace store.  The chain
    of open spans under an active {!Trace.collect} lives in
    domain-local storage, so concurrent domains trace independently —
    there is no process-global span stack. *)

module Trace : sig
  type ctx = {
    trace_id : string;  (** 32 lowercase hex chars; [""] for {!ambient} *)
    span_id : string;  (** 16 lowercase hex chars; [""] for {!ambient} *)
    sampled : bool;  (** record spans for this request even when tracing is globally off *)
  }

  val ambient : ctx
  (** The default root context: identity-free, never sampled, so a
      {!collect} under it records only while the global flag is on. *)

  val make : ?sampled:bool -> ?trace_id:string -> unit -> ctx
  (** Mint a fresh context (fresh span id always; fresh trace id unless
      a valid one is supplied).  Each id is a bijective mix of a
      process-wide counter, keyed by a per-process base (one MD5 of wall
      clock and pid, taken at start-up): ids never repeat within a
      process and differ across processes by the base — unique
      correlation ids, not secrets.  A process forked without exec
      keeps its parent's base and counter, so ids minted on both sides
      of the fork can coincide. *)

  val to_wire : ctx -> string
  (** Compact ["traceid-spanid"] form carried in the newline-JSON
      protocol's ["trace"] field. *)

  val to_traceparent : ctx -> string
  (** W3C-style ["00-traceid-spanid-01"] form used in HTTP
      [traceparent] headers. *)

  val of_wire : ?sampled:bool -> string -> ctx option
  (** Parse either wire form (case-insensitive), adopting the trace id
      and minting a fresh local span id.  [None] on anything malformed
      — the caller mints a fresh context instead of erroring. *)

  val collect :
    ctx -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a * Span.t option
  (** Run the function inside a {e root} span and return the completed
      tree.  Records when the process-wide flag is on or the context is
      [sampled]; returns [None] (plain nested span) otherwise, or when
      another collection is already active on this domain — the
      outermost caller owns the trace. *)
end

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the function inside a child span of the innermost open span of
    the current domain.  When no {!Trace.collect} is recording on this
    domain, this is just the function call. *)

val annotate : string -> string -> unit
(** Attach a key/value annotation to the innermost open span (dropped
    when none is open). *)

val annotate_int : string -> int -> unit

(** {1 Clock} *)

val now_us : unit -> float
(** Wall-clock microseconds (the tracer's clock; epoch-based). *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed wall time
    in milliseconds (the benchmark harness's timer). *)

(** {1 Continuous folded-stack profiler}

    Always-on aggregation of completed span trees into collapsed-stack
    lines (["frame;frame;frame <self-ns>"], the flamegraph.pl /
    speedscope input format).  Each finished root span is folded
    immediately into a bounded table of
    [stack -> (count, inclusive ns, self ns)], so memory stays
    O(distinct stacks) regardless of traffic volume.  Stacks are
    prefixed with [domain-<i>] (the recording domain), making
    cross-domain time splits visible.  Serves [GET /profile.folded]. *)

module Profile : sig
  type row = {
    stack : string;  (** [;]-joined frames, [domain-<i>] first *)
    count : int;  (** times this exact stack completed *)
    incl_ns : float;  (** total inclusive nanoseconds *)
    self_ns : float;  (** total self nanoseconds (excl. children) *)
  }

  val record : Span.t -> unit
  (** Fold one completed root span tree into the profile.  Mutex-guarded
      and cheap (O(tree) hash updates); safe from any domain. *)

  val rows : unit -> row list
  (** All accumulated stacks, sorted lexicographically. *)

  val to_folded : ?reset:bool -> unit -> string
  (** Collapsed-stack text: one ["stack <self-ns>\n"] line per row.
      Summing a frame's own lines with its descendants' reconstructs
      inclusive time — the contract flamegraph renderers expect.
      [~reset:true] also drops every stack and zeroes the fold and drop
      counts, under the same lock acquisition as the read, so a fold
      lands either in the returned text or in the next one. *)

  val to_json : unit -> Json.t
  (** Profiler health: [{stacks; max_stacks; folded; dropped}] — the
      stats block of [/domains.json]. *)
end

(** {1 Structured performance reports}

    Machine-readable benchmark reports ([BENCH_<tag>.json]): one record
    per measured experiment — id, workload params, raw samples,
    median/IQR — under a schema version, plus the pairing/diffing logic
    behind [expfinder bench-diff]. *)

module Report : sig
  type sample_stats = {
    samples : float list;  (** raw samples, as measured *)
    median : float;  (** true median (mean of the middle pair when even) *)
    iqr : float;  (** [q3 - q1] *)
    q1 : float;
    q3 : float;
  }

  val stats_of_samples : float list -> sample_stats
  (** Quartiles by linear interpolation between order statistics; all
      [nan] on an empty list. *)

  type record = {
    id : string;  (** unique within a report, e.g. ["EXP-Q1.bsim.n=2000"] *)
    experiment : string;  (** the owning experiment, e.g. ["EXP-Q1"] *)
    units : string;  (** the samples' unit (almost always ["ms"]) *)
    params : (string * Json.t) list;  (** workload parameters *)
    stats : sample_stats;
  }

  type t
  (** A mutable report under construction (or loaded from disk). *)

  val create : ?tool:string -> ?mode:string -> unit -> t
  (** Fresh empty report.  [mode] records quick vs full so reports from
      different sweep sizes are not diffed against each other blindly. *)

  val add :
    t -> id:string -> ?experiment:string -> ?units:string -> ?params:(string * Json.t) list ->
    float list -> unit
  (** Append a record.  [experiment] defaults to the [id] prefix before
      the first ['.']. *)

  val records : t -> record list
  (** In insertion order. *)

  val write : t -> string -> unit
  (** Pretty-printed JSON to the given path. *)

  val load : string -> (t, string) result
  (** Read a report back, checking the schema version; derived stats are
      recomputed from the raw samples. *)

  (** {2 Regression diffing} *)

  type verdict = Regression | Improvement | Unchanged | Added | Removed

  type comparison = {
    cid : string;  (** record id *)
    verdict : verdict;
    old_median : float;  (** [nan] for [Added] *)
    new_median : float;  (** [nan] for [Removed] *)
    ratio : float;  (** [new_median / old_median]; [nan] when unpaired *)
  }

  val diff :
    ?threshold:float -> ?min_ms:float -> baseline:t -> candidate:t -> unit -> comparison list
  (** Pair records by id and compare medians.  A pair is a regression
      when the median grew by more than [threshold] (default 0.5, i.e.
      +50%) {e and} the Tukey intervals [q1 - 1.5*iqr, q3 + 1.5*iqr]
      of the two runs do not overlap (the IQR noise rule; the wide
      fences keep low-rep quick-mode runs from self-flagging);
      symmetrically for improvements.  Pairs whose medians are both
      below [min_ms] (default 0.05 ms) are noise and always
      [Unchanged]. *)

  val has_regression : comparison list -> bool

  val pp_diff : Format.formatter -> comparison list -> unit
  (** One line per non-[Unchanged] comparison plus a summary line. *)
end

(** {1 GC pause observation}

    Best-effort self-monitoring of GC pause time through
    [Runtime_events]: {!Gcpause.start} subscribes to the runtime's own
    event ring, and each {!process_stats} call drains it, pairing
    minor/major slice begin/end events into one registry histogram per
    domain, [gc.domain<i>.pause_us]; every pause total is read from
    those histograms.  If the ring cannot be created the module stays
    inert and the totals read zero. *)

module Gcpause : sig
  val start : unit -> bool
  (** Start runtime-event collection for this process (idempotent).
      Returns [false] — and leaves the module inert — when the runtime
      ring cannot be created.  The backing [<pid>.events] file lands in
      the working directory, or in [OCAML_RUNTIME_EVENTS_DIR] when that
      is set at process start (the runtime reads it only then).  The
      runtime unlinks the file on a normal exit, so a process that can
      be killed should turn its fatal signals into [Stdlib.exit]. *)

  val domain_spawns : unit -> int
  (** [EV_DOMAIN_SPAWN] lifecycle events observed since start. *)

  val domain_stops : unit -> int
  (** [EV_DOMAIN_TERMINATE] lifecycle events observed since start. *)

  type domain_totals = {
    domain : int;  (** runtime ring index (= domain slot; slots are
                       reused after a domain terminates) *)
    pause_us_total : int;
    pause_us_max : int;
    slices : int;
  }

  val by_domain : unit -> domain_totals list
  (** Per-domain pause totals, sorted by domain slot: the sum, max and
      count of the domain's [gc.domain<i>.pause_us] histogram, so
      {!Metrics.reset_all} zeroes them too.  The
      [process.gc_pause_us_total] and [process.gc_pause_us_max] gauges
      of {!process_stats} are their sum and max. *)
end

(** {1 Process gauges} *)

val process_stats : unit -> (string * int) list
(** Sample the process: resident set size in bytes ([VmRSS] of
    [/proc/self/status]; 0 where that is unavailable), major-heap words, cumulative
    minor/major allocated words, GC minor/major collection counts
    ({!Gc.quick_stat}), cumulative and max GC pause microseconds
    ({!Gcpause}), the process start time and the uptime in seconds.
    Each sample is also published as a registry gauge
    ([process.rss_bytes], [process.heap_words], ...,
    [uptime.seconds] — the latter surfacing in Prometheus as
    [expfinder_uptime_seconds]).  Polls {!Gcpause} first. *)

(** {1 Sliding windows}

    An op class's window is its request series in the shared
    {!Timeseries} store, read over the last 60 one-second slots: live
    QPS, error rate and latency percentiles per operation class.
    {!Timeseries.observe} writes it; everything here reads it without a
    lock.  Like every metric cell, windows record unconditionally.
    Latency samples use the same log-scale buckets as {!Histogram} (~9%
    relative resolution, exact min/max clamping). *)

module Window : sig
  type t
  (** One op class's request series. *)

  val totals : t -> int * int
  (** Lifetime [(requests, errors)] since creation (or {!reset}), which
      outlive the series' tiers. *)

  val reset : t -> unit
  (** Empty every tier of the series, zero the lifetime totals and the
      exemplars, and drop the memoised {!recent_p99}.  Takes the
      series' writer mutex. *)

  (** The last 60 one-second slots, merged. *)
  type summary = {
    window_s : int;
    count : int;
    errors : int;
    qps : float;  (** [count / window_s] *)
    error_rate : float;  (** 0 when the window is empty *)
    p50 : float;  (** latency percentiles in ms; [nan] when empty *)
    p95 : float;
    p99 : float;
    mean_ms : float;
    max_ms : float;
  }

  val summary : ?now:float -> t -> summary

  val recent_p99 : ?now:float -> t -> int * float
  (** [(count, p99)] of {!summary} as of the current second: a memo
      taken at most once per wall-clock second ([?now] pins the clock),
      and again sooner once the lifetime request count has at least
      doubled since it was taken, so a window that fills up within one
      second gets a fresh figure.  Right after a refresh it equals
      [(summary w).count] and [(summary w).p99].  This is what {!slow}
      compares a finished request against, so the verdict costs one
      atomic read instead of merging 60 slots. *)

  val slow : t -> float -> bool
  (** [slow w ms]: the one rule for a slow request.  True when [w]
      holds at least 20 requests ({!recent_p99}'s count) and [ms] is at
      or above their p99.  {!Request.finish} asks it once per request,
      before the request joins the window, and passes the verdict to the
      trace store, the flight recorder and the query log. *)

  val summary_of_json : Json.t -> summary option
  (** Parse a summary object ({!to_json}'s) back (postmortem rendering
      reads its window summaries this way); [null]/missing latency
      fields come back as [nan]. *)

  (** {2 Exemplars} — one recent trace id per latency bucket, linking
      scraped percentiles to stored traces. *)

  type exemplar = {
    ex_le : float;  (** upper bound of the latency bucket, in ms *)
    ex_trace_id : string;
    ex_value_ms : float;  (** the exemplar observation itself *)
    ex_ts_unix : float;  (** when it was observed *)
  }

  val to_json : ?now:float -> t -> Json.t
  (** The current summary as a flat object ([qps], [p95_ms], ...;
      [nan] fields as [null]) plus an [exemplars] array, ordered by
      bucket bound: one recent traced observation per latency bucket,
      kept until a later one in the same bucket (or {!reset})
      (the [/stats.json] per-window document; {!summary_of_json}
      ignores the extra member). *)

  (** {2 The op classes} — the request series of {!Timeseries.shared}
      (query/batch/update, registered at startup), enumerated by the
      exporters. *)

  val get : string -> t
  (** [Timeseries.requests Timeseries.shared name]. *)

  val all : unit -> (string * t) list
  (** Every request series of {!Timeseries.shared}, sorted by op. *)

end

(** {1 In-process trace store}

    A bounded, mutex-guarded ring of recently finished request traces —
    the backing store for [GET /traces.json] and the [expfinder trace]
    explorer.  Admission combines tail sampling (errored and slow
    requests are always kept) with head sampling (one in ten of the
    unremarkable rest), so the store holds the interesting traces plus
    a thin representative sample at bounded memory.  "Slow" is the
    caller's {!Window.slow} verdict. *)

module Tracestore : sig
  type stored = {
    strace_id : string;
    sspan_id : string;  (** the request's root span id *)
    sop : string;  (** op class: ["query"], ["batch"], ["update"] *)
    squery : string;  (** pattern fingerprint / batch label / ["update"] *)
    sduration_ms : float;
    serror : bool;
    skept : string;  (** admission reason: ["error"], ["slow"] or ["sampled"] *)
    sts_unix : float;
    sroot : Span.t option;  (** span tree, when one was recorded *)
  }

  val record :
    trace_id:string ->
    span_id:string ->
    op:string ->
    query:string ->
    duration_ms:float ->
    error:bool ->
    slow:bool ->
    ?root:Span.t ->
    unit ->
    bool
  (** Offer a finished request; [true] iff it was admitted, as
      ["error"], ["slow"] or one-in-ten ["sampled"], in that order.  The engine
      uses the verdict to decide whether to advertise the trace id as a
      histogram exemplar, so exemplars always resolve to stored traces.
      Identity-free requests ([trace_id = ""]) are never stored. *)

  val clear : unit -> unit

  val stored_of_json : Json.t -> stored option
  (** Parse one trace object of {!to_json}'s [traces] back (the
      [expfinder trace] client side). *)

  val to_json : unit -> Json.t
  (** The [/traces.json] document: [{capacity; seen; traces}]. *)

  val pp_stored : Format.formatter -> stored -> unit
  (** Header line (id, op, query, duration, admission reason) followed
      by the span tree via {!Span.pp_annotated}, critical path
      marked. *)
end

(** {1 Query log}

    An append-only JSONL log of serving-path events — one line per
    query, batch or update batch — with an env-configurable sink
    ([EXPFINDER_QLOG]) and size-based rotation (at 64 MiB, one
    archived generation at [<sink>.1]).  Events carry the request id, the snapshot identity
    [(graph_id, epoch)] the request ran against, the pattern digest,
    strategy, duration, per-request counter deltas, answer size and
    digest, slow/error flags, and (when available) a replayable payload
    — enough for [expfinder replay] to re-run the workload and verify
    answer digests.  See DESIGN.md for the schema.

    The sink is mutex-guarded per sink and sequence numbers are claimed
    atomically: alert events emitted from the sampler thread interleave
    with the handler's query events line-atomically, never torn. *)

module Qlog : sig
  type kind = Query | Batch | Update | Alert

  val kind_name : kind -> string
  (** ["query"], ["batch"], ["update"], ["alert"].  [Alert] events are
      SLO state transitions written by {!Slo.evaluate}; replay skips
      them. *)

  type event = {
    seq : int;  (** request id, monotonic within the process *)
    ts_unix : float;  (** wall-clock seconds when the request finished or the alert changed *)
    kind : kind;
    graph_id : int;  (** snapshot identity the request ran against *)
    epoch : int;
    query : string;  (** pattern fingerprint / batch label / ["update"] *)
    strategy : string;
    duration_ms : float;
    counters : (string * int) list;  (** nonzero counter deltas *)
    pairs : int;  (** answer size (update events: effective updates) *)
    digest : string;  (** answer digest; [""] when not applicable *)
    slow : bool;  (** the request's {!Window.slow} verdict *)
    trace_id : string;  (** [""] when the request carried no trace context (or a v1 line) *)
    error : string option;
    payload : Json.t option;  (** replayable request body *)
  }

  val set_sink : string option -> unit
  (** Point the log at a path ([None] and [Some ""] disable).
      Initialised from
      [EXPFINDER_QLOG]; the file opens lazily on the first {!write} and
      is appended to. *)

  val enabled : unit -> bool
  (** A sink is configured. *)

  val set_max_bytes : int -> unit
  (** Rotation threshold (floor 4096; 64 MiB unless set here, which
      only the rotation tests do).  When appending the next event would
      exceed it, the sink is renamed to [<sink>.1] (replacing any
      previous archive) and a fresh file is started. *)

  val write : event -> unit
  (** Append one event (no-op without a sink) under the log's own
      sequence number, which replaces [seq]; the other fields are
      written as given.  Finished requests reach the log through
      {!Request.finish}, alert transitions through {!Slo.evaluate}.
      Every event is flushed so a crash loses at most the event being
      written.  Sink I/O failures (unwritable path, full disk) never
      raise into the caller: the sink is disabled with one stderr
      warning, and {!set_sink} re-arms it. *)

  val close : unit -> unit
  (** Flush and close the sink channel (the path stays configured). *)

  val load : string -> (event list, string) result
  (** Parse a JSONL file back into events (blank lines skipped); the
      error names the offending line. *)
end

(** {1 Flight recorder}

    An always-on, fixed-size ring buffer of the last 64 finished
    requests (queries, batches and update batches).  It holds
    the same {!Qlog.event} record the query log writes, numbered by the
    ring's own sequence, with the same {!Window.slow} flag.  Filled by
    {!Request.finish}; dumped by [expfinder stats --recent], in the
    postmortem artifact and automatically when the differential
    self-check fails. *)

module Recorder : sig
  val recent : unit -> Qlog.event list
  (** Buffered records, oldest first.  [seq] is the ring's sequence
      number; [digest] and [payload] are only filled while a query-log
      sink is set. *)

  val clear : unit -> unit

  val pp : Format.formatter -> unit -> unit

  val to_json : unit -> Json.t
  (** One object per record with seven fields: [seq], [query],
      [strategy], [duration_ms], [slow], [trace_id], [counters]. *)
end

(** {1 Finished requests}

    The one entry point through which the engine reports a finished
    query, batch or update batch.  Each request is taken once and fanned
    out in order to the {!Tracestore}, the continuous {!Profile}, its
    op-class {!Window}, the flight {!Recorder} and the {!Qlog}. *)

module Request : sig
  val finish :
    kind:Qlog.kind ->
    trace:Trace.ctx ->
    query:string ->
    strategy:string ->
    duration_ms:float ->
    counters:(string * int) list ->
    pairs:int ->
    ?digest:string Lazy.t ->
    ?payload:Json.t Lazy.t ->
    ?error:string ->
    ?root:Span.t ->
    graph_id:int ->
    epoch:int ->
    unit ->
    unit
  (** Report one finished request of op class [kind] ([Query], [Batch]
      or [Update]; [Alert] raises [Invalid_argument]).  [query] is the
      pattern fingerprint, batch label or ["update"]; [counters] the
      counter deltas over the request; [pairs] the answer size (for an
      update, the effective updates); [error] the failure, if any;
      [root] the request's span tree; [graph_id]/[epoch] the snapshot
      identity.  The slow flag is computed once here ({!Window.slow}
      against the op window before the request joins it) and shared by
      the trace store, the recorder and the query log.  The trace store
      sees the request first, and its admission verdict decides whether
      the trace id becomes the window's latency exemplar.  [digest]
      (default [""]) and [payload] are forced only when a query-log
      sink is set.  Safe from any domain. *)
end

(** {1 Time series retention}

    The one time-bucket store.  Every series keeps one tier per
    resolution (1s x 120 / 10s x 360 / 60s x 720, about 2 minutes / 1
    hour / 12 hours) and every write feeds all three, so the coarse
    tiers are exact downsamples of the fine one.  A slot is stamped with
    the interval it holds; a write into a later interval publishes a
    fresh slot instead of resetting the old one, so readers
    ({!points}, {!to_json}, the {!Window} summaries, {!Slo.evaluate})
    take no lock and never merge a half-reset slot.

    Two kinds of writer: {!sample}, the periodic collector driven by the
    server's sampler thread, which pulls the windows' summaries,
    {!process_stats} and the counter registry into sampled series and
    appends one JSONL tick to the [EXPFINDER_TIMESERIES] sink (rotated
    at 64 MiB as in {!Qlog}); and {!observe}, which every finished
    request calls on its op class's request series.  A request series
    reads as two rate series, [req.<op>] and [err.<op>]. *)

module Timeseries : sig
  type kind =
    | Rate  (** per-tick delta of a cumulative source; aggregate = sum *)
    | Level  (** instantaneous reading; aggregate = last/min/max *)

  type t

  val create : unit -> t
  (** A fresh, empty store.  The series registry is an immutable map
      published through an [Atomic]: registering a series never blocks a
      reader. *)

  val shared : t
  (** The process-wide instance behind [/timeseries.json], the sampler,
      the windows, the SLO evaluator and postmortems. *)

  val requests : t -> string -> Window.t
  (** The request series of an op class, registered (as [req.<op>]) on
      first use. *)

  val observe : Window.t -> ?error:bool -> ?now:float -> ?trace:string -> float -> unit
  (** [observe w ms] records one finished request of [ms] milliseconds
      in every tier of [w], under [w]'s own writer mutex, so any worker
      domain may observe into any op class.  [?now] (unix seconds) pins
      the clock for tests.  [?trace] (a non-empty trace id) also
      installs the request as the exemplar of its latency bucket —
      callers should only pass ids of traces admitted to the
      {!Tracestore}, so every advertised exemplar resolves. *)

  val record : ?now:float -> t -> kind -> string -> float -> unit
  (** Record one value of a sampled series into every tier ([?now] pins
      the clock for tests; non-finite values are dropped).  One thread
      writes a store's sampled series. *)

  (** One retained slot of one series. *)
  type point = {
    t_unix : int;  (** slot start, unix seconds *)
    res_s : int;
    n : int;  (** samples merged into the slot; 1 for [req.]/[err.] *)
    sum : float;
    vmin : float;
    vmax : float;
    last : float;
  }

  val points : ?now:float -> t -> seconds:int -> string -> point list
  (** The series' points over the trailing [seconds] (the last
      [ceil (seconds / res_s)] slots, the current one included), oldest
      first, from the finest tier that spans the range. *)

  val sample : ?now:float -> ?persist:bool -> t -> (string * float) list
  (** One sampler tick: collect every live source into [t] and (unless
      [~persist:false]) append the tick to the sink.  Returns the
      recorded [(series, value)] pairs.  Cumulative sources prime on
      the first tick and yield [Rate] deltas from the second on. *)

  val to_json : ?now:float -> ?max_points:int -> t -> Json.t
  (** The retained data as the [/timeseries.json] document: one entry
      per resolution, each series as [[t_unix, last, sum, min, max,
      count]] point arrays ([?max_points] caps the tail length per
      series per resolution). *)

  (** {2 Persisted captures} *)

  type tick = { ts_unix : float; fields : (string * float) list }

  val load : string -> (tick list, string) result
  (** Parse a JSONL capture back (blank lines skipped); the error names
      the offending line. *)

  val report : ?mode:string -> tick list -> Report.t
  (** One report record per series ([TS.<name>], experiment [TS]) with
      the per-tick values as samples — two captures diff under
      [expfinder bench-diff] like any pair of bench runs. *)
end

(** {1 SLO burn-rate alerts}

    Availability objectives evaluated from the op classes' request
    series in {!Timeseries} (their 10 s tier) with
    multi-window burn-rate rules (SRE-workbook shape): an alert fires
    only while {e both} the fast window (5 m) and the slow window (1 h)
    burn error budget faster than their thresholds (14.4 / 6.0), and
    clears as soon as either recovers.  The policy is fixed: 99%
    availability per op class. *)

module Slo : sig
  type objective = {
    oname : string;  (** alert name, e.g. ["query-availability"] *)
    op : string;  (** op class: ["query"] / ["batch"] / ["update"] *)
    target : float;  (** e.g. [0.99]: at most 1% of requests may error *)
  }

  val availability : op:string -> target:float -> unit -> objective

  type state = Passing | Firing

  (** Live evaluation state of one objective. *)
  type alert = {
    objective : objective;
    mutable state : state;
    mutable since_unix : float;  (** when the current state began *)
    mutable burn_fast : float;
    mutable burn_slow : float;
    mutable bad_fast : float;  (** bad fraction of the fast window *)
    mutable bad_slow : float;
  }

  val set_objectives : objective list -> unit
  (** Replace the active objective set (resets all alert state); it
      starts as 99% availability for ["query"], ["batch"] and
      ["update"]. *)

  val evaluate : ?now:float -> ?ts:Timeseries.t -> unit -> alert list
  (** Recompute every alert from the request series of [?ts] (default
      {!Timeseries.shared}; [?now] pins the clock).  State transitions
      are appended to the query log as [alert] events. *)

  val to_json : ?now:float -> unit -> Json.t
  (** The [/alerts.json] document. *)
end

(** {1 Prometheus exposition} *)

module Prometheus : sig
  val render : unit -> string
  (** The metric registry, the sliding windows, the process gauges and
      the SLO alert state in the Prometheus text exposition format,
      under an [expfinder_] namespace ([.] mapped to [_]), with a
      [# HELP] and [# TYPE] line per family: counters and gauges as
      themselves, histograms as summaries with p50/p95/p99 quantiles,
      windows as [expfinder_qps{op="query"}],
      [expfinder_error_rate{op=...}] and
      [expfinder_latency_ms{op=...,quantile="0.95"}] gauges, alerts as
      [expfinder_alert_active{alert=...,op=...}] (plus
      [expfinder_alert_burn{...,window="fast"|"slow"}]).  Registry
      names that sanitize to the same exposition token are
      disambiguated with a deterministic digest suffix instead of
      emitting duplicate series.  Samples {!process_stats} on each
      call; never re-evaluates alerts, so scraping cannot mutate alert
      state. *)
end

(** {1 Postmortem dumps}

    One self-contained crash artifact: reason, identity and
    [EXPFINDER_*] configuration, GC totals, op-class window summaries, alert state, the metrics registry, the
    flight-recorder tail and the recent timeseries — written atomically
    (dot-tmp then rename) to [EXPFINDER_POSTMORTEM_DIR] on fatal signal
    or uncaught server exception, and pretty-printed by [expfinder
    postmortem FILE]. *)

module Postmortem : sig
  val set_dir : string option -> unit
  (** Where artifacts land ([None] / [Some ""] disable); initialised
      from [EXPFINDER_POSTMORTEM_DIR].  The directory is created on
      first write. *)

  val write : ?reason:string -> unit -> string option
  (** Atomically write one artifact ([postmortem-<pid>-<ms>.json]) and
      return its path.  [None] when no directory is configured or on
      any failure — a postmortem writer that raises during a crash
      would mask the original failure. *)

  val load : string -> (Json.t, string) result
  (** Read an artifact back, checking the schema version. *)

  val pp : Format.formatter -> Json.t -> unit
  (** Human summary of a loaded artifact: reason, identity, firing
      alerts, window summaries, GC totals. *)
end
