open Expfinder_engine
open Expfinder_telemetry

(** Workload replay: re-run a captured query log
    ({!Expfinder_telemetry.Qlog}) against a fresh engine and check that
    every answer digest matches what was recorded.

    Replay is the closing half of the capture/replay loop: serve a
    workload with [EXPFINDER_QLOG] set, then feed the log back through
    {!run} on an engine built over the same base graph.  Query and
    batch events re-evaluate their recorded pattern payloads and
    compare {!Expfinder_core.Match_relation.digest} (batches: the MD5
    of the per-answer digests in input order) byte-for-byte, and the
    answer's {!Expfinder_core.Match_relation.total} (batches: the sum)
    with the recorded [pairs], both recomputed from the replayed
    relations rather than read from the engine's memo; update
    events re-apply their recorded ΔG, so a divergence introduced by an
    update shows up in the digest of every later query.  Events that
    recorded an error, or that carry no payload, are skipped and
    counted — they are not mismatches.  An event whose replay raises
    (e.g. an update naming a node the current graph lacks) is reported
    as a mismatch whose digest carries the error text, never a crash of
    the whole replay. *)

type outcome = {
  event : Qlog.event;
  replay_ms : float;  (** this run's latency ([nan] when skipped) *)
  digest : string;  (** recomputed answer digest ([""] for updates) *)
  pairs : int;  (** recounted answer size, summed over a batch ([0] for updates) *)
  matched : bool;  (** digest and pair count agree with the recorded ones *)
  skipped : string option;  (** reason this event was not replayed *)
}

type summary = {
  total : int;
  replayed : int;
  skipped : int;
  mismatches : int;
  outcomes : outcome list;  (** in log order *)
}

val run : Engine.t -> Qlog.event list -> summary
(** Replay the events in log order.  The engine should hold the same
    base graph the log was captured against (updates are re-applied, so
    starting from a later state diverges by construction). *)

val mismatches : summary -> outcome list

val report : ?mode:string -> summary -> Report.t
(** The replay latencies as a bench report (mode ["replay"]): one
    [REPLAY.<kind>.<fingerprint>] record per distinct request (samples:
    this run's latencies), a paired [QLOG.<kind>.<fingerprint>] record
    holding the latencies recorded at capture time, and a [REPLAY.total]
    record over every replayed event.  Ids depend only on the captured
    workload, so two replays of the same log pair up under
    [expfinder bench-diff] — the recorded-vs-replayed delta is visible
    inside one report, and replay-vs-replay across two. *)

val pp_summary : Format.formatter -> summary -> unit
(** Counts, the recorded-vs-replayed median latency delta, and one line
    per skip or mismatch. *)
