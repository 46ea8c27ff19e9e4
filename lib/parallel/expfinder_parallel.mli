(** Multicore primitives for the ExpFinder execution model.

    One shape covers the server's use of OCaml 5 domains: a {e worker
    pool} ({!Pool}), to which the accept loop dispatches connection
    handlers over a bounded channel ({!Chan}).  A worker runs every
    request of its connection, update batches included; the engine's
    writer lock serializes the batches, and readers never block on it.

    Query evaluation itself is sequential.  {!run} is a plain fork/join
    helper for drivers that want several client domains (the soak
    client, the pool-scaling bench).

    The [EXPFINDER_DOMAINS] environment variable sizes only the serving
    pool (see {!default_pool_domains}).

    The pool is instrumented through the telemetry registry (channel
    depth gauges, enqueue/dequeue wait histograms, per-worker busy/idle
    accounting); metric names are documented on each module.  Every
    one of these cells records, whatever {!Expfinder_telemetry.set_enabled}
    says. *)

val env_name : string
(** Name of the controlling environment variable, ["EXPFINDER_DOMAINS"]. *)

val env_domains : unit -> int option
(** [env_domains ()] is the parsed value of [EXPFINDER_DOMAINS]: [Some n]
    for a well-formed positive integer, [None] when unset or malformed
    (malformed values are ignored rather than fatal, matching the other
    [EXPFINDER_*] knobs). *)

val default_pool_domains : unit -> int
(** Default domain count for the {e serving} pool: [EXPFINDER_DOMAINS]
    when set, else [max 1 (Domain.recommended_domain_count () - 1)]
    (one domain is left to the accept loop). *)

val run : domains:int -> (int -> 'a) -> 'a array
(** [run ~domains f] evaluates [f 0 .. f (domains-1)] concurrently and
    returns the results in chunk order.  Chunk [0] runs on the calling
    domain, so [run ~domains:1 f] spawns nothing and is equivalent to
    [[| f 0 |]].  All spawned domains are joined before returning; if
    any chunk raised, the exception of the lowest-numbered failing
    chunk is re-raised. *)

(** Bounded multi-producer / multi-consumer channel (mutex +
    condition variables).  [push] blocks while the channel is at
    capacity; [pop] blocks while it is empty and returns [None] once
    the channel is closed {e and} drained, so consumers terminate
    deterministically. *)
module Chan : sig
  type 'a t

  val create : ?name:string -> capacity:int -> unit -> 'a t
  (** [create ~capacity ()] is an empty channel holding at most
      [max 1 capacity] elements.  A [?name]d channel publishes an
      exact depth gauge [chan.<name>.depth] plus wait histograms
      [chan.<name>.push_wait_us] / [chan.<name>.pop_wait_us]
      (microseconds blocked on capacity/emptiness), all of which always
      record.  Anonymous channels carry no metrics and pay no
      instrumentation cost. *)

  val push : 'a t -> 'a -> unit
  (** Blocks until there is room.  @raise Invalid_argument if the
      channel is closed. *)

  val pop : 'a t -> 'a option
  (** Blocks until an element is available; [None] after {!close} once
      the backlog is drained. *)

  val close : 'a t -> unit
  (** Close the channel: wakes all blocked producers and consumers.
      Idempotent. *)

  val length : 'a t -> int
  (** Current backlog (a snapshot; may be stale by the time it
      returns). *)
end

(** Fixed pool of worker domains fed from a bounded channel.  Jobs are
    [unit -> unit] thunks; a job that raises does not kill its worker
    (the exception goes to [on_error], default ignore). *)
module Pool : sig
  type t

  val create :
    ?name:string ->
    ?capacity:int ->
    ?on_error:(exn -> unit) ->
    domains:int ->
    unit ->
    t
  (** [create ~domains ()] spawns [max 1 domains] workers over a
      channel bounded at [capacity] (default [64]) jobs — the bound is
      the server's backpressure: when all workers are busy and the
      queue is full, {!submit} (the accept loop) blocks instead of
      accumulating unserved connections.

      The pool registers metrics under [?name] (default
      ["pool"]): gauges [<name>.workers], [<name>.queue_capacity] and
      [<name>.busy] (workers mid-job right now), counter
      [<name>.tasks], per-worker counters
      [<name>.worker<i>.tasks|busy_us|idle_us] and gauge
      [<name>.worker<i>.domain_id], histogram [<name>.drain_ms], plus
      the job channel's [chan.<name>.jobs.*] metrics.

      @raise Failure when a worker domain cannot be spawned (for
      instance [domains] above the runtime's domain limit); the workers
      already spawned are joined first, so nothing leaks. *)

  val size : t -> int
  (** Number of worker domains. *)

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a job; blocks when the queue is full.
      @raise Invalid_argument after {!shutdown}. *)

  val shutdown : t -> unit
  (** Close the queue, let the workers drain the backlog, and join
      them all.  Returns only when every worker has exited.  The drain
      is recorded in [<name>.drain_ms] and folded into the continuous
      profile under [pool.drain]. *)
end
