(* Multicore primitives for the ExpFinder execution model.

   Everything here is deliberately small: the server's parallelism is a
   bounded work queue feeding a fixed pool of domains.  Query evaluation
   is sequential.  No scheduler, no effects, no task graph.

   The pool is instrumented through the telemetry registry: channel
   depth gauges and wait histograms, per-worker busy/idle accounting.
   All metric state lives in per-instance records (registry cells are
   internally Atomic/mutex-guarded), so this module adds no
   module-level mutable bindings of its own. *)

module T = Expfinder_telemetry

let env_name = "EXPFINDER_DOMAINS"

let env_domains () =
  match Sys.getenv_opt env_name with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_pool_domains () =
  match env_domains () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* ------------------------------------------------------------------ *)
(* Fork/join                                                            *)
(* ------------------------------------------------------------------ *)

(* Chunk 0 runs on the calling domain, so [run ~domains:1 f] never
   spawns and is byte-identical to a plain call.  All workers are
   joined before the first exception (in chunk order) is re-raised, so
   no domain leaks even when a chunk fails. *)
let run ~domains f =
  let domains = max 1 domains in
  if domains = 1 then [| f 0 |]
  else
    let capture g = match g () with v -> Ok v | exception e -> Error e in
    let workers =
      Array.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> capture (fun () -> f (i + 1))))
    in
    let first = capture (fun () -> f 0) in
    let results = Array.append [| first |] (Array.map Domain.join workers) in
    Array.map (function Ok v -> v | Error e -> raise e) results

(* ------------------------------------------------------------------ *)
(* Bounded channel                                                      *)
(* ------------------------------------------------------------------ *)

module Chan = struct
  (* A named channel publishes a depth gauge [chan.<name>.depth]
     (updated inside the lock, so it is exact) and wait histograms
     [chan.<name>.push_wait_us] / [chan.<name>.pop_wait_us] pricing
     backpressure stalls.  Anonymous channels carry no metrics and pay
     nothing. *)
  type 'a metrics = {
    g_depth : T.Gauge.t;
    h_push_wait : T.Histogram.t;
    h_pop_wait : T.Histogram.t;
  }

  type 'a t = {
    q : 'a Queue.t;
    capacity : int;
    m : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    mutable closed : bool;
    metrics : 'a metrics option;
  }

  let create ?name ~capacity () =
    let metrics =
      Option.map
        (fun name ->
          {
            g_depth = T.Metrics.gauge ("chan." ^ name ^ ".depth");
            h_push_wait = T.Metrics.histogram ("chan." ^ name ^ ".push_wait_us");
            h_pop_wait = T.Metrics.histogram ("chan." ^ name ^ ".pop_wait_us");
          })
        name
    in
    {
      q = Queue.create ();
      capacity = max 1 capacity;
      m = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      closed = false;
      metrics;
    }

  (* Only a named channel reads the clock: an anonymous one has no
     histogram to observe into. *)
  let arm t = match t.metrics with Some _ -> T.now_us () | None -> 0.0

  let observe_wait h t0 = T.Histogram.observe h (T.now_us () -. t0)

  let set_depth t =
    (* Called with [t.m] held. *)
    match t.metrics with
    | Some m -> T.Gauge.set m.g_depth (Queue.length t.q)
    | None -> ()

  let push t v =
    let t0 = arm t in
    Mutex.lock t.m;
    let rec attempt () =
      if t.closed then (
        Mutex.unlock t.m;
        invalid_arg "Expfinder_parallel.Chan.push: channel closed")
      else if Queue.length t.q >= t.capacity then (
        Condition.wait t.nonfull t.m;
        attempt ())
      else (
        Queue.push v t.q;
        set_depth t;
        Condition.signal t.nonempty;
        Mutex.unlock t.m;
        match t.metrics with
        | Some m -> observe_wait m.h_push_wait t0
        | None -> ())
    in
    attempt ()

  let pop t =
    let t0 = arm t in
    Mutex.lock t.m;
    let rec attempt () =
      if not (Queue.is_empty t.q) then (
        let v = Queue.pop t.q in
        set_depth t;
        Condition.signal t.nonfull;
        Mutex.unlock t.m;
        (match t.metrics with
        | Some m -> observe_wait m.h_pop_wait t0
        | None -> ());
        Some v)
      else if t.closed then (
        Mutex.unlock t.m;
        None)
      else (
        Condition.wait t.nonempty t.m;
        attempt ())
    in
    attempt ()

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Condition.broadcast t.nonfull;
    Mutex.unlock t.m

  let length t =
    Mutex.lock t.m;
    let n = Queue.length t.q in
    Mutex.unlock t.m;
    n
end

(* ------------------------------------------------------------------ *)
(* Worker pool                                                          *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  (* Per-pool accounting, read back by [/domains.json]:
       [<name>.workers] / [<name>.queue_capacity]  static gauges
       [<name>.busy]                               workers mid-job now
       [<name>.tasks]                              jobs executed
       [<name>.worker<i>.tasks|busy_us|idle_us]    per-worker split
       [<name>.worker<i>.domain_id]                Domain.self of worker
       [<name>.drain_ms]                           shutdown drain span *)
  type metrics = {
    busy : int Atomic.t;
    g_busy : T.Gauge.t;
    m_tasks : T.Counter.t;
    h_drain : T.Histogram.t;
  }

  type t = {
    jobs : (unit -> unit) Chan.t;
    workers : unit Domain.t array;
    on_error : exn -> unit;
    metrics : metrics;
  }

  let create ?(name = "pool") ?(capacity = 64) ?(on_error = fun _ -> ()) ~domains
      () =
    let domains = max 1 domains in
    let jobs = Chan.create ~name:(name ^ ".jobs") ~capacity () in
    let on_error e = try on_error e with _ -> () in
    T.Gauge.set (T.Metrics.gauge (name ^ ".workers")) domains;
    T.Gauge.set
      (T.Metrics.gauge (name ^ ".queue_capacity"))
      (max 1 capacity);
    let metrics =
      {
        busy = Atomic.make 0;
        g_busy = T.Metrics.gauge (name ^ ".busy");
        m_tasks = T.Metrics.counter (name ^ ".tasks");
        h_drain = T.Metrics.histogram (name ^ ".drain_ms");
      }
    in
    let worker i () =
      let prefix = Printf.sprintf "%s.worker%d" name i in
      T.Gauge.set
        (T.Metrics.gauge (prefix ^ ".domain_id"))
        (Domain.self () :> int);
      let m_worker_tasks = T.Metrics.counter (prefix ^ ".tasks") in
      let m_busy_us = T.Metrics.counter (prefix ^ ".busy_us") in
      let m_idle_us = T.Metrics.counter (prefix ^ ".idle_us") in
      let rec loop idle_from =
        match Chan.pop jobs with
        | None -> T.Counter.add m_idle_us (int_of_float (T.now_us () -. idle_from))
        | Some job ->
            let t0 = T.now_us () in
            T.Counter.add m_idle_us (int_of_float (t0 -. idle_from));
            T.Gauge.set metrics.g_busy (1 + Atomic.fetch_and_add metrics.busy 1);
            (try job () with e -> on_error e);
            ignore (Atomic.fetch_and_add metrics.busy (-1) : int);
            T.Gauge.set metrics.g_busy (Atomic.get metrics.busy);
            let t1 = T.now_us () in
            T.Counter.add m_busy_us (int_of_float (t1 -. t0));
            T.Counter.incr m_worker_tasks;
            T.Counter.incr metrics.m_tasks;
            loop t1
      in
      loop (T.now_us ())
    in
    (* A failed spawn leaves the workers already running blocked on
       [jobs]: close it and join them before reporting the failure. *)
    let spawned = ref [] in
    (try
       for i = 0 to domains - 1 do
         spawned := Domain.spawn (worker i) :: !spawned
       done
     with e ->
       Chan.close jobs;
       List.iter Domain.join !spawned;
       failwith
         (Printf.sprintf "%s: cannot spawn %d worker domains (%s)" name domains
            (Printexc.to_string e)));
    { jobs; workers = Array.of_list (List.rev !spawned); on_error; metrics }

  let size t = Array.length t.workers
  let submit t job = Chan.push t.jobs job

  (* The drain (close + join, i.e. every queued job finishing) is
     recorded both as a histogram sample and as a span tree folded into
     the continuous profile, so slow shutdowns show up in
     [/profile.folded] under [pool.drain]. *)
  let shutdown t =
    Chan.close t.jobs;
    let (), root =
      T.Trace.collect
        (T.Trace.make ~sampled:true ())
        "pool.drain"
        (fun () -> Array.iter Domain.join t.workers)
    in
    match root with
    | None -> ()
    | Some span ->
        T.Histogram.observe t.metrics.h_drain (T.Span.duration_ms span);
        T.Profile.record span
end
