open Expfinder_pattern
open Expfinder_core
open Expfinder_incremental
open Expfinder_engine
open Expfinder_telemetry

type outcome = {
  event : Qlog.event;
  replay_ms : float;
  digest : string;
  pairs : int;
  matched : bool;
  skipped : string option;
}

type summary = {
  total : int;
  replayed : int;
  skipped : int;
  mismatches : int;
  outcomes : outcome list;
}

let skip event reason =
  { event; replay_ms = nan; digest = ""; pairs = 0; matched = true; skipped = Some reason }

let batch_digest relations =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map Match_relation.digest relations)))

(* Parse every element of a payload array with [parse], or say which one
   is broken. *)
let parse_all parse = function
  | Json.Arr items ->
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match parse item with
        | Ok v -> go (i + 1) (v :: acc) rest
        | Error e -> Error (Printf.sprintf "element %d: %s" i e))
    in
    go 0 [] items
  | _ -> Error "payload is not an array"

let parse_pattern = function
  | Json.Str text -> Pattern_io.of_string text
  | _ -> Error "pattern payload is not a string"

let replay_one engine (event : Qlog.event) =
  match event.error with
  | Some _ -> skip event "original request errored"
  | None -> (
    match event.payload with
    | None -> skip event "no payload (qlog sink was set mid-run?)"
    | Some payload -> (
      (* A raising event (say an update replayed against a graph missing
         the node it names) must not abort the whole replay: it is
         reported as a mismatch carrying the error text. *)
      let timed f =
        let t0 = now_us () in
        match f () with
        | r -> (Ok r, (now_us () -. t0) /. 1000.0)
        | exception e -> (Error (Printexc.to_string e), (now_us () -. t0) /. 1000.0)
      in
      let crashed replay_ms msg =
        { event; replay_ms; digest = "error: " ^ msg; pairs = 0; matched = false; skipped = None }
      in
      (* An answer matches when both its digest and its pair count, each
         recomputed from the replayed relations, equal the recorded ones. *)
      let answered replay_ms digest pairs =
        {
          event;
          replay_ms;
          digest;
          pairs;
          matched = digest = event.digest && pairs = event.pairs;
          skipped = None;
        }
      in
      match event.kind with
      | Qlog.Alert ->
        (* Alert transitions are annotations on the capture, not
           requests; nothing to replay. *)
        skip event "alert event"
      | Qlog.Query -> (
        match parse_pattern payload with
        | Error e -> skip event ("bad payload: " ^ e)
        | Ok pattern -> (
          match timed (fun () -> Engine.evaluate engine pattern) with
          | Error msg, replay_ms -> crashed replay_ms msg
          | Ok answer, replay_ms ->
            let relation = answer.Engine.relation in
            answered replay_ms (Match_relation.digest relation) (Match_relation.total relation)))
      | Qlog.Batch -> (
        match parse_all parse_pattern payload with
        | Error e -> skip event ("bad payload: " ^ e)
        | Ok patterns -> (
          match timed (fun () -> Engine.evaluate_batch engine patterns) with
          | Error msg, replay_ms -> crashed replay_ms msg
          | Ok answers, replay_ms ->
            let relations = List.map (fun a -> a.Engine.relation) answers in
            answered replay_ms (batch_digest relations)
              (List.fold_left (fun acc r -> acc + Match_relation.total r) 0 relations)))
      | Qlog.Update -> (
        match parse_all Update.of_json payload with
        | Error e -> skip event ("bad payload: " ^ e)
        | Ok ops -> (
          match timed (fun () -> Engine.apply_updates engine ops) with
          | Error msg, replay_ms -> crashed replay_ms msg
          | Ok _reports, replay_ms ->
            (* Updates carry no answer digest; correctness shows up in the
               digests of every later query against the mutated graph. *)
            { event; replay_ms; digest = ""; pairs = 0; matched = true; skipped = None }))))

let run engine events =
  let outcomes = List.map (replay_one engine) events in
  let replayed = List.filter (fun (o : outcome) -> o.skipped = None) outcomes in
  {
    total = List.length outcomes;
    replayed = List.length replayed;
    skipped = List.length outcomes - List.length replayed;
    mismatches = List.length (List.filter (fun (o : outcome) -> not o.matched) replayed);
    outcomes;
  }

let mismatches summary = List.filter (fun (o : outcome) -> not o.matched) summary.outcomes

(* Group replayed outcomes into report records keyed by the event's
   query fingerprint: the ids depend only on the captured workload, so
   two replays of the same log (say before and after an optimisation)
   pair up under [expfinder bench-diff]. *)
let report ?(mode = "replay") summary =
  let r = Report.create ~tool:"expfinder replay" ~mode () in
  let groups : (string, float list ref * float list ref * string list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun (o : outcome) ->
      if o.skipped = None then begin
        let key = Printf.sprintf "%s.%s" (Qlog.kind_name o.event.Qlog.kind) o.event.Qlog.query in
        let replayed, recorded, traces =
          match Hashtbl.find_opt groups key with
          | Some cell -> cell
          | None ->
            let cell = (ref [], ref [], ref []) in
            Hashtbl.add groups key cell;
            order := key :: !order;
            cell
        in
        replayed := o.replay_ms :: !replayed;
        recorded := o.event.Qlog.duration_ms :: !recorded;
        if o.event.Qlog.trace_id <> "" then traces := o.event.Qlog.trace_id :: !traces
      end)
    summary.outcomes;
  let all_replayed = ref [] in
  List.iter
    (fun key ->
      let replayed, recorded, traces = Hashtbl.find groups key in
      (* Preserve the captured requests' identity: the trace ids the
         group's events carried at capture time (v1 logs carry none),
         so a replay report can be joined back to the original traces. *)
      let trace_param =
        if !traces = [] then []
        else
          [ ("trace_ids", Json.Arr (List.rev_map (fun t -> Json.Str t) !traces)) ]
      in
      Report.add r ~id:("REPLAY." ^ key) ~experiment:"REPLAY" ~units:"ms"
        ~params:(("requests", Json.Int (List.length !replayed)) :: trace_param)
        (List.rev !replayed);
      Report.add r ~id:("QLOG." ^ key) ~experiment:"QLOG" ~units:"ms"
        ~params:(("requests", Json.Int (List.length !recorded)) :: trace_param)
        (List.rev !recorded);
      all_replayed := !replayed @ !all_replayed)
    (List.rev !order);
  if !all_replayed <> [] then
    Report.add r ~id:"REPLAY.total" ~experiment:"REPLAY" ~units:"ms"
      ~params:[ ("requests", Json.Int (List.length !all_replayed)) ]
      !all_replayed;
  r

let pp_summary ppf summary =
  let median l =
    if l = [] then nan else (Report.stats_of_samples l).Report.median
  in
  let replayed = List.filter (fun (o : outcome) -> o.skipped = None) summary.outcomes in
  let rec_ms = median (List.map (fun (o : outcome) -> o.event.Qlog.duration_ms) replayed) in
  let rep_ms = median (List.map (fun (o : outcome) -> o.replay_ms) replayed) in
  Format.fprintf ppf "@[<v>replayed %d/%d events (%d skipped), %d answer mismatch%s@,"
    summary.replayed summary.total summary.skipped summary.mismatches
    (if summary.mismatches = 1 then "" else "es");
  if replayed <> [] then
    Format.fprintf ppf "median latency: recorded %.3f ms, replayed %.3f ms (%+.1f%%)@,"
      rec_ms rep_ms
      (if rec_ms > 0.0 then ((rep_ms /. rec_ms) -. 1.0) *. 100.0 else nan);
  List.iter
    (fun (o : outcome) ->
      match o.skipped with
      | Some reason -> Format.fprintf ppf "  skipped #%d (%s): %s@," o.event.Qlog.seq o.event.Qlog.query reason
      | None ->
        if not o.matched then
          Format.fprintf ppf "  MISMATCH #%d (%s): recorded %s (%d pairs), replayed %s (%d pairs)@,"
            o.event.Qlog.seq o.event.Qlog.query o.event.Qlog.digest o.event.Qlog.pairs o.digest
            o.pairs)
    summary.outcomes;
  Format.fprintf ppf "@]"
