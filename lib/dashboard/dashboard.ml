(* Pure rendering for the `expfinder top` terminal dashboard.  Every
   function here maps already-parsed JSON documents (the bodies of
   /stats.json, /timeseries.json and /alerts.json) to strings, so the
   whole dashboard is unit-testable from canned documents without a
   server or a TTY. *)

open Expfinder_telemetry

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 40) values =
  let values = List.filter (fun v -> Float.is_finite v) values in
  let n = List.length values in
  let values = if n > width then List.filteri (fun i _ -> i >= n - width) values else values in
  match values with
  | [] -> ""
  | vs ->
    let vmin = List.fold_left min infinity vs in
    let vmax = List.fold_left max neg_infinity vs in
    let range = vmax -. vmin in
    let cell v =
      if range <= 0.0 then if vmax > 0.0 then blocks.(3) else blocks.(0)
      else
        let i = int_of_float ((v -. vmin) /. range *. 7.0 +. 0.5) in
        blocks.(max 0 (min 7 i))
    in
    String.concat "" (List.map cell vs)

(* {2 Document accessors} *)

let member_or path doc =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some doc) path

let float_at path doc = Option.bind (member_or path doc) Json.float_opt
let int_at path doc = Option.bind (member_or path doc) Json.int_opt

(* A /timeseries.json point is the array [t_unix; last; sum; min; max;
   count]; the dashboard trends the "last" slot_close values. *)
let point_last p =
  match Json.list_opt p with
  | Some (_ :: last :: _) -> Json.float_opt last
  | _ -> None

let series_tail doc name =
  match Option.bind (Json.member "resolutions" doc) Json.list_opt with
  | None -> []
  | Some resolutions ->
    (* Resolutions are emitted finest-first; the finest ring that
       carries the series gives the liveliest trend. *)
    let rec pick = function
      | [] -> []
      | r :: rest -> (
        match member_or [ "series"; name ] r with
        | Some points ->
          (match Json.list_opt points with
          | Some ps -> List.filter_map point_last ps
          | None -> [])
        | None -> pick rest)
    in
    pick resolutions

let firing_alerts alerts_doc =
  match Option.bind (Json.member "alerts" alerts_doc) Json.list_opt with
  | None -> []
  | Some alerts ->
    List.filter
      (fun a -> match Json.member "firing" a with Some (Json.Bool b) -> b | _ -> false)
      alerts

let configured_alerts alerts_doc =
  match Option.bind (Json.member "alerts" alerts_doc) Json.list_opt with
  | None -> 0
  | Some l -> List.length l

(* {2 Rendering} *)

let fmt_bytes b =
  if b >= 1024.0 *. 1024.0 *. 1024.0 then Printf.sprintf "%.1fGiB" (b /. (1024.0 ** 3.0))
  else if b >= 1024.0 *. 1024.0 then Printf.sprintf "%.1fMiB" (b /. (1024.0 ** 2.0))
  else if b >= 1024.0 then Printf.sprintf "%.1fKiB" (b /. 1024.0)
  else Printf.sprintf "%.0fB" b

let fmt_uptime s =
  let s = int_of_float s in
  if s >= 3600 then Printf.sprintf "%dh%02dm" (s / 3600) (s mod 3600 / 60)
  else if s >= 60 then Printf.sprintf "%dm%02ds" (s / 60) (s mod 60)
  else Printf.sprintf "%ds" s

let fmt_opt fmt = function Some v -> fmt v | None -> "-"

let op_row ~width ~timeseries op stats =
  let win field = Option.bind stats (float_at [ "windows"; op; field ]) in
  let spark =
    match timeseries with
    | None -> ""
    | Some ts -> sparkline ~width (series_tail ts (Printf.sprintf "win.%s.qps" op))
  in
  Printf.sprintf "  %-7s %8s %7s %9s  %s" op
    (fmt_opt (Printf.sprintf "%.1f") (win "qps"))
    (fmt_opt (fun v -> Printf.sprintf "%.2f%%" (100.0 *. v)) (win "error_rate"))
    (fmt_opt
       (fun v -> if Float.is_finite v then Printf.sprintf "%.2fms" v else "-")
       (win "p99_ms"))
    spark

let alert_lines alerts =
  match alerts with
  | None -> [ "  alerts: (unavailable)" ]
  | Some doc -> (
    let firing = firing_alerts doc in
    match firing with
    | [] -> [ Printf.sprintf "  alerts: %d configured, none firing" (configured_alerts doc) ]
    | fs ->
      List.map
        (fun a ->
          let name =
            match Option.bind (Json.member "name" a) Json.str_opt with
            | Some n -> n
            | None -> "?"
          in
          Printf.sprintf "  ALERT %-28s burn fast %.1fx  slow %.1fx" name
            (Option.value ~default:nan (float_at [ "burn_fast" ] a))
            (Option.value ~default:nan (float_at [ "burn_slow" ] a)))
        fs)

(* One row per pool worker from a parsed /domains.json: utilization is
   busy/(busy+idle) over the worker's whole life, tasks its throughput. *)
let domain_lines ~width ~timeseries domains =
  match domains with
  | None -> []
  | Some doc ->
    let pool field = int_at [ "pool"; field ] doc in
    let header =
      Printf.sprintf "  domains: %s worker(s)  busy %s  queue %s/%s  writer backlog %s"
        (fmt_opt string_of_int (pool "workers"))
        (fmt_opt string_of_int (pool "busy"))
        (fmt_opt string_of_int (pool "queue_depth"))
        (fmt_opt string_of_int (pool "queue_capacity"))
        (fmt_opt string_of_int (pool "writer_backlog"))
    in
    let workers =
      match Option.bind (Json.member "workers" doc) Json.list_opt with
      | None -> []
      | Some ws ->
        List.map
          (fun w ->
            Printf.sprintf "    worker %s  domain %s  tasks %-7s util %s"
              (fmt_opt string_of_int (int_at [ "worker" ] w))
              (fmt_opt string_of_int (int_at [ "domain_id" ] w))
              (fmt_opt string_of_int (int_at [ "tasks" ] w))
              (fmt_opt
                 (fun u -> Printf.sprintf "%.0f%%" (100.0 *. u))
                 (float_at [ "utilization" ] w)))
          ws
    in
    let trends =
      match timeseries with
      | None -> []
      | Some ts ->
        List.filter_map
          (fun (label, series) ->
            match sparkline ~width (series_tail ts series) with
            | "" -> None
            | s -> Some (Printf.sprintf "    %-14s %s" label s))
          [
            ("queue depth", "m.chan.pool.jobs.depth");
            ("writer backlog", "m.engine.writer.backlog");
          ]
    in
    (header :: workers) @ trends

let render ?(width = 40) ?stats ?timeseries ?alerts ?domains () =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let proc field = Option.bind stats (float_at [ "process"; field ]) in
  line "expfinder top — graph %s  epoch %s  uptime %s"
    (fmt_opt string_of_int (Option.bind stats (int_at [ "graph_id" ])))
    (fmt_opt string_of_int (Option.bind stats (int_at [ "epoch" ])))
    (fmt_opt fmt_uptime (proc "uptime.seconds"));
  List.iter (line "%s") (alert_lines (match alerts with
    | Some _ as a -> a
    | None -> Option.bind stats (Json.member "alerts")));
  line "";
  line "  %-7s %8s %7s %9s  %s" "op" "qps" "err" "p99" "trend";
  List.iter (fun op -> line "%s" (op_row ~width ~timeseries op stats)) [ "query"; "batch"; "update" ];
  line "";
  let rss = proc "process.rss_bytes" in
  let heap_bytes = Option.map (fun w -> w *. float_of_int (Sys.word_size / 8)) (proc "process.heap_words") in
  line "  rss %s  heap %s  gc pause max %s"
    (fmt_opt fmt_bytes rss)
    (fmt_opt fmt_bytes heap_bytes)
    (fmt_opt (fun us -> Printf.sprintf "%.0fus" us) (proc "process.gc_pause_us_max"));
  (match timeseries with
  | None -> ()
  | Some ts ->
    let rss_trend = sparkline ~width (series_tail ts "process.rss_bytes") in
    let pause_trend = sparkline ~width (series_tail ts "process.gc_pause_us_max") in
    if rss_trend <> "" then line "  rss trend      %s" rss_trend;
    if pause_trend <> "" then line "  gc pause trend %s" pause_trend);
  (match domain_lines ~width ~timeseries domains with
  | [] -> ()
  | ls ->
    line "";
    List.iter (line "%s") ls);
  Buffer.contents b
