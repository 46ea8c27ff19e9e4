(* Telemetry subsystem tests: histogram percentiles, counter
   saturation, per-query profiles on the paper's Fig. 1 example, answer
   invariance under the runtime flag, the collapsed-stack profiler, and
   a syntactic round-trip of the Chrome trace-event export. *)

open Expfinder_pattern
open Expfinder_core
open Expfinder_engine
open Expfinder_telemetry
module Collab = Expfinder_workload.Collab
module Replay = Expfinder_workload.Replay

(* Every test leaves the global flag off so suites in this binary do
   not leak telemetry state into each other. *)
let with_telemetry on f =
  set_enabled on;
  Fun.protect ~finally:(fun () -> set_enabled false) f

(* --- metrics ------------------------------------------------------------ *)

(* A field of a registered histogram's [Metrics.to_json] entry. *)
let histogram_field name field =
  Option.bind
    (Option.bind (Json.member name (Metrics.to_json ())) (Json.member field))
    Testkit.float_of_json

let test_histogram_percentiles () =
  let h = Metrics.histogram "t.hist" in
  Alcotest.(check bool) "empty percentile is nan" true (Float.is_nan (Histogram.percentile h 0.5));
  for i = 1 to 100 do
    Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  let field = histogram_field "t.hist" in
  Alcotest.(check (option (float 1e-6))) "sum" (Some 5050.0) (field "sum");
  Alcotest.(check (option (float 1e-6))) "min" (Some 1.0) (field "min");
  Alcotest.(check (option (float 1e-6))) "max" (Some 100.0) (field "max");
  (* Buckets are geometric with ~9% relative resolution: the reported
     percentile is a bucket upper bound near the exact sample. *)
  let p50 = Histogram.percentile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 = %.2f within 9%% of 50" p50)
    true
    (p50 >= 45.0 && p50 <= 56.0);
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 = %.2f within [90, 100]" p99)
    true
    (p99 >= 90.0 && p99 <= 100.0);
  (* Never outside [min, max]; the top end clamps to the exact max. *)
  let p0 = Histogram.percentile h 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p0 = %.4f within a bucket of min" p0)
    true
    (p0 >= 1.0 && p0 <= 1.1);
  Alcotest.(check (float 1e-6)) "p100 clamps to max" 100.0 (Histogram.percentile h 1.0);
  Metrics.reset_all ();
  Alcotest.(check int) "reset empties" 0 (Histogram.count h);
  Alcotest.(check (option (float 1e-6))) "reset entry count" (Some 0.0) (field "count");
  Alcotest.(check (option (float 1e-6))) "reset entry sum" (Some 0.0) (field "sum")

let test_histogram_edge_cases () =
  let h = Metrics.histogram "t.hist.edge" in
  (* Empty: every percentile is nan, as are min and max. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "empty p%.0f is nan" (100.0 *. p))
        true
        (Float.is_nan (Histogram.percentile h p)))
    [ 0.0; 0.5; 1.0 ];
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "empty %s is nan" field)
        true
        (Option.fold ~none:false ~some:Float.is_nan (histogram_field "t.hist.edge" field)))
    [ "min"; "max" ];
  (* A single sample: clamping pins every percentile to that sample. *)
  Histogram.observe h 42.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "single-sample p%.0f" (100.0 *. p))
        42.0 (Histogram.percentile h p))
    [ 0.0; 0.5; 1.0 ];
  Alcotest.(check int) "single-sample count" 1 (Histogram.count h)

let test_delta_across_reset_all () =
  let c = Metrics.counter "t.reg.reset_delta" in
  Counter.reset c;
  Counter.add c 5;
  let before = Metrics.counters_snapshot () in
  Metrics.reset_all ();
  let after = Metrics.counters_snapshot () in
  (* Deltas spanning a reset go negative: pinned-down, documented
     behaviour the report layer must expect (not silently clamped). *)
  Alcotest.(check bool)
    "delta across reset_all is negative" true
    (List.assoc_opt "t.reg.reset_delta" (Metrics.delta ~before ~after) = Some (-5))

let test_counter_saturation () =
  let c = Counter.create "t.sat" in
  Counter.add c (max_int - 2);
  Counter.add c 5;
  Alcotest.(check int) "add saturates at max_int" max_int (Counter.value c);
  Counter.incr c;
  Alcotest.(check int) "incr stays saturated" max_int (Counter.value c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

(* --- per-query profiles ------------------------------------------------- *)

let test_profile_stage_tree () =
  with_telemetry true (fun () ->
      let engine = Engine.create (Collab.graph ()) in
      let q = Collab.query () in
      let experts = Engine.top_k engine q ~k:2 in
      Alcotest.(check int) "top-2 found" 2 (List.length experts);
      match Engine.last_profile engine with
      | None -> Alcotest.fail "enabled telemetry must produce a profile"
      | Some p ->
        Alcotest.(check string) "profile query" (Pattern.fingerprint q) p.Engine.query;
        let names = Testkit.span_names p.Engine.span in
        List.iter
          (fun stage ->
            Alcotest.(check bool)
              (Printf.sprintf "stage tree contains %S" stage)
              true (List.mem stage names))
          [ "topk"; "evaluate"; "plan"; "candidates"; "refine"; "rank" ];
        (* The refinement stage is nested under the evaluation, not a
           sibling of the root. *)
        (match Testkit.span_find p.Engine.span "evaluate" with
        | None -> Alcotest.fail "no evaluate span"
        | Some ev ->
          Alcotest.(check bool)
            "refine nested under evaluate" true
            (List.mem "refine" (Testkit.preorder ev)));
        (* The rank span says how much work the top-K cutoff saved. *)
        (match Testkit.span_find p.Engine.span "rank" with
        | None -> Alcotest.fail "no rank span"
        | Some r ->
          Alcotest.(check (option string))
            "pruned count on the rank span" (Some "0")
            (List.assoc_opt "pruned" (Testkit.span_attrs r)));
        Alcotest.(check (option int))
          "both matches ranked" (Some 2)
          (List.assoc_opt "ranking.ranked" p.Engine.counters);
        Alcotest.(check bool)
          "root duration is measurable" true
          (Span.duration_ms p.Engine.span >= 0.0);
        Alcotest.(check bool)
          "some counter moved during the query" true
          (List.exists (fun (_, v) -> v > 0) p.Engine.counters))

let test_disabled_no_profile () =
  let engine = Engine.create (Collab.graph ()) in
  let answer = Engine.evaluate engine (Collab.query ()) in
  Alcotest.(check bool) "no profile when disabled" true (answer.Engine.profile = None);
  Alcotest.(check bool) "no last_profile when disabled" true (Engine.last_profile engine = None)

let test_same_answers_when_disabled () =
  let run () =
    let engine = Engine.create (Collab.graph ()) in
    let q = Collab.query () in
    let answer = Engine.evaluate engine q in
    let experts =
      List.map (fun e -> (e.Engine.node, e.Engine.name, e.Engine.rank)) (Engine.top_k engine q ~k:3)
    in
    (List.sort compare (Match_relation.pairs answer.Engine.relation), answer.Engine.provenance, experts)
  in
  let off = run () in
  let on = with_telemetry true run in
  Alcotest.(check bool) "telemetry does not change answers" true (off = on)

(* A reset read returns every stack folded so far and leaves the table
   empty: the read and the clear are one operation. *)
let test_folded_reset_drains () =
  let (), root =
    Trace.collect (Trace.make ~sampled:true ()) "t.fold.root" (fun () ->
        with_span "t.fold.child" ignore)
  in
  Profile.record (Option.get root);
  let stacks body =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ stack; _ ] -> Some stack
        | _ -> None)
      (String.split_on_char '\n' body)
  in
  let drained = stacks (Profile.to_folded ~reset:true ()) in
  let domain = Printf.sprintf "domain-%d" (Domain.self () :> int) in
  List.iter
    (fun stack ->
      Alcotest.(check bool) (stack ^ " returned") true (List.mem stack drained))
    [ domain ^ ";t.fold.root"; domain ^ ";t.fold.root;t.fold.child" ];
  Alcotest.(check int) "no stack left" 0 (List.length (Profile.rows ()));
  Alcotest.(check (option int)) "fold count zeroed" (Some 0)
    (Option.bind (Json.member "folded" (Profile.to_json ())) Json.int_opt);
  Alcotest.(check string) "next read is empty" "" (Profile.to_folded ())

let test_sampled_profile_counters () =
  (* With the flag off, a sampled request still records a span tree and
     so a profile.  Its counters are the request's own delta — the one
     its flight-recorder record carries — not lifetime totals. *)
  set_enabled false;
  let engine = Engine.create (Collab.graph ()) in
  List.iter
    (fun q ->
      let answer = Engine.evaluate ~trace:(Trace.make ~sampled:true ()) engine q in
      match (answer.Engine.profile, List.rev (Recorder.recent ())) with
      | Some p, last :: _ ->
        Alcotest.(check (list (pair string int)))
          "profile counters are the request's delta" last.Qlog.counters p.Engine.counters
      | None, _ -> Alcotest.fail "a sampled evaluation must produce a profile"
      | Some _, [] -> Alcotest.fail "the request reached no recorder record")
    [ Collab.q1 (); Collab.query () ]

(* --- Chrome trace export ------------------------------------------------ *)

(* A small JSON reader, enough to round-trip the exporter's output
   (the test suite has no JSON library to lean on). *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some c ->
          incr pos;
          Buffer.add_char buf c
        | None -> fail "bad escape");
        loop ()
      | Some c ->
        incr pos;
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when numeric c -> true | _ -> false) do
      incr pos
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((key, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_chrome_trace_roundtrip () =
  with_telemetry true (fun () ->
      let (), span =
        Trace.collect Trace.ambient "root" ~attrs:[ ("who", "test") ] (fun () ->
            with_span "child-a" (fun () -> annotate_int "items" 3);
            with_span "child-b" (fun () ->
                with_span "grandchild" (fun () -> ())))
      in
      let span = match span with Some s -> s | None -> Alcotest.fail "no root span" in
      let text = Span.to_chrome_json span in
      let events =
        match parse_json text with
        | Arr events -> events
        | _ -> Alcotest.fail "trace is not a JSON array"
        | exception Bad_json msg -> Alcotest.fail ("trace is not valid JSON: " ^ msg)
      in
      Alcotest.(check int) "one event per span" 4 (List.length events);
      let field name = function
        | Obj fields -> List.assoc_opt name fields
        | _ -> Alcotest.fail "event is not an object"
      in
      let names =
        List.map
          (fun e ->
            (match field "ph" e with
            | Some (Str "X") -> ()
            | _ -> Alcotest.fail "event is not a complete event");
            (match (field "ts" e, field "dur" e) with
            | Some (Num ts), Some (Num dur) ->
              Alcotest.(check bool) "timestamps are sane" true (ts >= 0.0 && dur >= 0.0)
            | _ -> Alcotest.fail "event lacks ts/dur");
            match field "name" e with
            | Some (Str name) -> name
            | _ -> Alcotest.fail "event lacks a name")
          events
      in
      Alcotest.(check (list string))
        "event names preserve the tree order"
        [ "root"; "child-a"; "child-b"; "grandchild" ]
        names;
      (* The root's annotations survive the export. *)
      match List.hd events with
      | Obj _ as root -> (
        match field "args" root with
        | Some (Obj args) ->
          Alcotest.(check bool) "root args kept" true (List.assoc_opt "who" args = Some (Str "test"))
        | _ -> Alcotest.fail "root lacks args")
      | _ -> ())

(* --- Json emitter/parser ------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline\twith \\ specials");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("nothing", Json.Null);
        ("arr", Json.Arr [ Json.Int 1; Json.Float 2.25; Json.Str "x" ]);
        ("nested", Json.Obj [ ("empty_arr", Json.Arr []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact round-trip" true (v = v')
  | Error e -> Alcotest.fail ("compact parse failed: " ^ e));
  (match Json.of_string (Json.to_string ~pretty:true v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | Error e -> Alcotest.fail ("pretty parse failed: " ^ e));
  (* Non-finite floats are emitted as null, never as bare words. *)
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf -> null" "null"
    (Json.to_string (Json.Float Float.infinity));
  (* Parse errors, not exceptions. *)
  Alcotest.(check bool) "trailing garbage rejected" true (Json.of_string "1 2" |> Result.is_error);
  Alcotest.(check bool) "unterminated string rejected" true (Json.of_string "\"x" |> Result.is_error);
  (* Accessors. *)
  let m = Json.member "i" v in
  Alcotest.(check (option int)) "member/int_opt" (Some (-42)) (Option.bind m Json.int_opt);
  Alcotest.(check (option (float 1e-9)))
    "float_opt accepts Int" (Some (-42.0))
    (Option.bind m Testkit.float_of_json)

let test_metrics_to_json () =
  let c = Metrics.counter "t.json.counter" in
  Counter.reset c;
  Counter.add c 3;
  let j = Metrics.to_json () in
  match Json.member "t.json.counter" j with
  | Some entry ->
    Alcotest.(check (option string))
      "kind" (Some "counter")
      (Option.bind (Json.member "kind" entry) Json.str_opt);
    Alcotest.(check (option int))
      "value" (Some 3)
      (Option.bind (Json.member "value" entry) Json.int_opt)
  | None -> Alcotest.fail "registered counter missing from Metrics.to_json"

(* --- structured reports ------------------------------------------------- *)

let test_report_stats () =
  let s = Report.stats_of_samples [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "even-count median is the middle-pair mean" 2.5 s.Report.median;
  Alcotest.(check (float 1e-9)) "q1" 1.75 s.Report.q1;
  Alcotest.(check (float 1e-9)) "q3" 3.25 s.Report.q3;
  Alcotest.(check (float 1e-9)) "iqr" 1.5 s.Report.iqr;
  let one = Report.stats_of_samples [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "singleton median" 7.0 one.Report.median;
  Alcotest.(check (float 1e-9)) "singleton iqr" 0.0 one.Report.iqr;
  Alcotest.(check bool)
    "empty stats are nan" true
    (Float.is_nan (Report.stats_of_samples []).Report.median)

let with_tmpfile f =
  let path = Filename.temp_file "expfinder-report" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let make_report samples_by_id =
  let r = Report.create ~mode:"test" () in
  List.iter
    (fun (id, samples) ->
      Report.add r ~id ~params:[ ("n", Json.Int 2000) ] samples)
    samples_by_id;
  r

let test_report_write_load () =
  with_tmpfile (fun path ->
      let r = make_report [ ("EXP-Q1.bsim.n=2000", [ 1.0; 2.0; 3.0 ]); ("EXP-K1", [ 0.5 ]) ] in
      Report.write r path;
      match Report.load path with
      | Error e -> Alcotest.fail ("load failed: " ^ e)
      | Ok loaded -> (
        match Report.records loaded with
        | [ a; b ] ->
          Alcotest.(check string) "id" "EXP-Q1.bsim.n=2000" a.Report.id;
          Alcotest.(check string) "experiment derived from id" "EXP-Q1" a.Report.experiment;
          Alcotest.(check (list (float 1e-9)))
            "raw samples survive" [ 1.0; 2.0; 3.0 ]
            a.Report.stats.Report.samples;
          Alcotest.(check (float 1e-9)) "median recomputed" 2.0 a.Report.stats.Report.median;
          Alcotest.(check string) "second id" "EXP-K1" b.Report.id
        | records -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length records))))

let test_report_rejects_other_schema () =
  with_tmpfile (fun path ->
      let oc = open_out path in
      output_string oc "{\"schema_version\": 999, \"records\": []}";
      close_out oc;
      Alcotest.(check bool) "future schema rejected" true (Report.load path |> Result.is_error))

let test_report_diff () =
  let baseline =
    make_report [ ("a", [ 10.0; 10.1; 10.2 ]); ("b", [ 5.0; 5.1; 5.2 ]); ("gone", [ 1.0 ]) ]
  in
  (* a regressed 2.5x with a disjoint spread; b is within noise. *)
  let candidate =
    make_report [ ("a", [ 25.0; 25.1; 25.2 ]); ("b", [ 5.1; 5.2; 5.3 ]); ("new", [ 1.0 ]) ]
  in
  let comparisons = Report.diff ~baseline ~candidate () in
  let verdict id =
    (List.find (fun c -> c.Report.cid = id) comparisons).Report.verdict
  in
  Alcotest.(check bool) "2.5x slowdown is a regression" true (verdict "a" = Report.Regression);
  Alcotest.(check bool) "noise-level change is unchanged" true (verdict "b" = Report.Unchanged);
  Alcotest.(check bool) "removed record tracked" true (verdict "gone" = Report.Removed);
  Alcotest.(check bool) "added record tracked" true (verdict "new" = Report.Added);
  Alcotest.(check bool) "has_regression" true (Report.has_regression comparisons);
  (* A report diffed against itself is entirely quiet. *)
  let self = Report.diff ~baseline ~candidate:baseline () in
  Alcotest.(check bool)
    "self-diff has no regressions or improvements" true
    (List.for_all (fun c -> c.Report.verdict = Report.Unchanged) self)

let test_report_diff_iqr_noise_rule () =
  (* Median grew >50% but the spreads overlap: noisy, not a regression. *)
  let baseline = make_report [ ("x", [ 1.0; 2.0; 9.0 ]) ] in
  let candidate = make_report [ ("x", [ 1.5; 3.5; 8.0 ]) ] in
  match Report.diff ~baseline ~candidate () with
  | [ c ] ->
    Alcotest.(check bool)
      "overlapping IQRs suppress the verdict" true
      (c.Report.verdict = Report.Unchanged)
  | _ -> Alcotest.fail "expected one comparison"

(* --- flight recorder ---------------------------------------------------- *)

(* The recorder ring's size. *)
let recorder_capacity = 64

let slow_events () = List.filter (fun (e : Qlog.event) -> e.slow) (Recorder.recent ())

let test_recorder_ring () =
  Recorder.clear ();
  (* The fan-out also feeds the query window, whose p99 decides the
     slow flag: start it empty and leave it so. *)
  let query_window = Window.get "query" in
  Window.reset query_window;
  Fun.protect
    ~finally:(fun () ->
      Window.reset query_window;
      Recorder.clear ())
    (fun () ->
      for i = 1 to recorder_capacity + 5 do
        Request.finish ~kind:Qlog.Query ~trace:Trace.ambient
          ~query:(Printf.sprintf "q%d" i)
          ~strategy:"direct/simulation"
          ~duration_ms:(if i mod 10 = 0 then 2.0 else 0.1)
          ~counters:[ ("engine.queries", 1) ]
          ~pairs:0 ~graph_id:0 ~epoch:0 ()
      done;
      let events = Recorder.recent () in
      Alcotest.(check int) "ring keeps the last capacity events" recorder_capacity
        (List.length events);
      (match (events, List.rev events) with
      | oldest :: _, newest :: _ ->
        Alcotest.(check string) "oldest survivor" "q6" oldest.Qlog.query;
        Alcotest.(check string) "newest event" (Printf.sprintf "q%d" (recorder_capacity + 5))
          newest.Qlog.query;
        Alcotest.(check bool) "sequence numbers increase" true
          (newest.Qlog.seq > oldest.Qlog.seq)
      | _ -> Alcotest.fail "empty recorder");
      (* Every 10th request takes 2 ms, so the window's p99 is 2 ms and
         only those are flagged once the window holds 20 requests. *)
      Alcotest.(check bool)
        "slow events flagged by the p99 rule" true
        (slow_events () <> []
        && List.for_all (fun e -> e.Qlog.duration_ms >= 1.0) (slow_events ()));
      (* The dump is valid JSON with the counter deltas attached, seven
         fields per event. *)
      (match Json.of_string (Json.to_string (Recorder.to_json ())) with
      | Ok (Json.Arr (Json.Obj fields :: _)) ->
        Alcotest.(check (list string))
          "recorder JSON fields"
          [ "seq"; "query"; "strategy"; "duration_ms"; "slow"; "trace_id"; "counters" ]
          (List.map fst fields)
      | Ok _ -> Alcotest.fail "recorder JSON is not an array of objects"
      | Error e -> Alcotest.fail ("recorder JSON invalid: " ^ e));
      Recorder.clear ();
      Alcotest.(check (list reject)) "clear empties" [] (Recorder.recent ()))

(* The one slow rule, through [Request.finish]: a request is slow when
   its op window already holds 20 requests and it reached their p99, and
   the recorder's flag and the trace store's reason agree. *)
let test_request_slow_rule () =
  let query_window = Window.get "query" in
  let reset () =
    Window.reset query_window;
    Recorder.clear ();
    Tracestore.clear ()
  in
  reset ();
  Fun.protect ~finally:reset (fun () ->
      let finish ms =
        let trace = Trace.make () in
        Request.finish ~kind:Qlog.Query ~trace ~query:"slow-rule" ~strategy:"direct/simulation"
          ~duration_ms:ms ~counters:[] ~pairs:0 ~graph_id:0 ~epoch:0 ();
        let flagged =
          match List.rev (Recorder.recent ()) with
          | e :: _ -> e.Qlog.slow
          | [] -> Alcotest.fail "the recorder lost the request"
        in
        let kept =
          Option.map (fun t -> t.Tracestore.skept) (Testkit.find_trace trace.Trace.trace_id)
        in
        (flagged, kept)
      in
      (* 20 requests, the 20th a 50 ms spike: the window held only 19
         when it finished, so nothing is flagged yet. *)
      for i = 1 to 20 do
        let flagged, kept = finish (if i = 20 then 50.0 else 1.0) in
        Alcotest.(check bool) (Printf.sprintf "request %d not flagged" i) false flagged;
        Alcotest.(check bool) (Printf.sprintf "request %d not kept as slow" i) true
          (kept <> Some "slow")
      done;
      (* Below the p99 (the 50 ms spike) nothing is flagged, whichever
         memo the verdict reads. *)
      for i = 21 to 32 do
        let flagged, kept = finish 1.0 in
        Alcotest.(check bool) (Printf.sprintf "request %d not flagged" i) false flagged;
        Alcotest.(check bool) (Printf.sprintf "request %d not kept as slow" i) true
          (kept <> Some "slow")
      done;
      (* By now the memo holds at least 20 requests: 32 doubled the last
         refresh's 16 even within one second. *)
      let flagged, kept = finish 80.0 in
      Alcotest.(check bool) "at or above the p99: flagged in the recorder" true flagged;
      Alcotest.(check (option string)) "and kept as slow by the trace store" (Some "slow") kept;
      let flagged, kept = finish 1.0 in
      Alcotest.(check bool) "below the p99: not flagged" false flagged;
      Alcotest.(check bool) "and not kept as slow" true (kept <> Some "slow"))

let test_recorder_captures_engine_queries () =
  Recorder.clear ();
  Fun.protect
    ~finally:(fun () -> Recorder.clear ())
    (fun () ->
      let engine = Engine.create (Collab.graph ()) in
      let q = Collab.query () in
      ignore (Engine.evaluate engine q : Engine.answer);
      ignore (Engine.evaluate engine q : Engine.answer);
      match Recorder.recent () with
      | [ first; second ] ->
        Alcotest.(check string)
          "query digest recorded" (Pattern.fingerprint q) first.Qlog.query;
        Alcotest.(check bool)
          "cold query went direct" true
          (String.length first.Qlog.strategy >= 7
          && String.sub first.Qlog.strategy 0 7 = "direct/");
        Alcotest.(check string) "warm query hit the cache" "cache" second.Qlog.strategy;
        Alcotest.(check bool)
          "per-query counter deltas captured" true
          (List.assoc_opt "engine.queries" first.Qlog.counters = Some 1
          && List.mem_assoc "engine.answers.direct" first.Qlog.counters)
      | events ->
        Alcotest.fail
          (Printf.sprintf "expected 2 recorded events, got %d" (List.length events)))

(* --- registry ----------------------------------------------------------- *)

let test_registry_snapshot_delta () =
  let c = Metrics.counter "t.reg.counter" in
  Counter.reset c;
  let before = Metrics.counters_snapshot () in
  Counter.add c 7;
  let after = Metrics.counters_snapshot () in
  let delta = Metrics.delta ~before ~after in
  Alcotest.(check bool)
    "delta isolates the moved counter" true
    (List.assoc_opt "t.reg.counter" delta = Some 7);
  Alcotest.(check bool)
    "unmoved counters are dropped from the delta" true
    (List.for_all (fun (_, v) -> v <> 0) delta)

(* The hashtable diff [Metrics.delta] used before it became a merge
   walk: the oracle the merge must agree with on name-sorted input. *)
let delta_oracle ~before ~after =
  let base = Hashtbl.create 16 in
  List.iter (fun (name, v) -> Hashtbl.replace base name v) before;
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt base name) in
      if d = 0 then None else Some (name, d))
    after

(* Per name (in sorted order): where it appears — 0 nowhere, 1 only in
   [before], 2 only in [after], 3 in both — and its two values.  Values
   in 0..3 make equal pairs (zero deltas) and falling pairs (a reset
   between snapshots) common. *)
let snapshot_pair =
  let names = [ "a"; "a.b"; "b"; "ba"; "c"; "d.x"; "e"; "z" ] in
  let build cells =
    let side keep =
      List.filter_map
        (fun (name, (where, bv, av)) -> keep name where bv av)
        (List.combine names cells)
    in
    ( side (fun name where bv _ -> if where = 1 || where = 3 then Some (name, bv) else None),
      side (fun name where _ av -> if where = 2 || where = 3 then Some (name, av) else None) )
  in
  let show (before, after) =
    let l xs = String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) xs) in
    Printf.sprintf "before [%s] after [%s]" (l before) (l after)
  in
  QCheck.make ~print:show
    QCheck.Gen.(
      map build
        (list_repeat (List.length names) (triple (int_bound 3) (int_bound 3) (int_bound 3))))

let prop_delta_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"merge delta equals the hashtable oracle" snapshot_pair
    (fun (before, after) -> Metrics.delta ~before ~after = delta_oracle ~before ~after)

(* Registered at run time, after every module-level metric: the
   name-ordered cells must be rebuilt, and histograms stay out. *)
let test_snapshot_matches_registry () =
  let c = Metrics.counter "t.reg.late.counter" in
  let g = Metrics.gauge "t.reg.late.gauge" in
  ignore (Metrics.histogram "t.reg.late.histogram" : Histogram.t);
  Counter.add c 3;
  Gauge.set g 11;
  let folded =
    match Metrics.to_json () with
    | Json.Obj rows ->
      List.filter_map
        (fun (name, row) ->
          match (Json.member "kind" row, Json.member "value" row) with
          | Some (Json.Str ("counter" | "gauge")), Some (Json.Int v) -> Some (name, v)
          | _ -> None)
        rows
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    | _ -> Alcotest.fail "registry JSON is not an object"
  in
  let snap = Metrics.counters_snapshot () in
  Alcotest.(check (list (pair string int))) "snapshot = sorted registry fold" folded snap;
  Alcotest.(check bool) "late counter present" true
    (List.assoc_opt "t.reg.late.counter" snap = Some 3);
  Alcotest.(check bool) "late gauge present" true
    (List.assoc_opt "t.reg.late.gauge" snap = Some 11);
  Alcotest.(check bool) "histograms excluded" false
    (List.mem_assoc "t.reg.late.histogram" snap);
  Counter.reset c;
  Gauge.set g 0

(* --- sliding windows ---------------------------------------------------- *)

(* A window's exemplars, read through its [/stats.json] document. *)
let exemplars w =
  let field k e = Option.bind (Json.member k e) Testkit.float_of_json |> Option.value ~default:nan in
  match Json.member "exemplars" (Window.to_json w) with
  | Some (Json.Arr exs) ->
    List.map
      (fun e ->
        {
          Window.ex_le = field "le" e;
          ex_trace_id = Option.value ~default:"" (Option.bind (Json.member "trace_id" e) Json.str_opt);
          ex_value_ms = field "value_ms" e;
          ex_ts_unix = field "ts_unix" e;
        })
      exs
  | _ -> []

let test_window_sliding () =
  let w = Window.get "t.win.slide" in
  let t0 = 1000.0 in
  (* One request per second for 60 seconds fills the whole ring. *)
  for i = 0 to 59 do
    Timeseries.observe w ~now:(t0 +. float_of_int i) 10.0
  done;
  let s = Window.summary ~now:(t0 +. 59.0) w in
  Alcotest.(check int) "full window count" 60 s.Window.count;
  Alcotest.(check (float 1e-9)) "qps = count / window" 1.0 s.Window.qps;
  Alcotest.(check int) "no errors" 0 s.Window.errors;
  (* Six seconds later only the 54 youngest buckets are still inside
     the window; the rest are stale and skipped on read. *)
  let s = Window.summary ~now:(t0 +. 65.0) w in
  Alcotest.(check int) "stale buckets fall out" 54 s.Window.count;
  (* Far in the future the window is empty again — without any write. *)
  let s = Window.summary ~now:(t0 +. 200.0) w in
  Alcotest.(check int) "fully drained" 0 s.Window.count;
  Alcotest.(check (float 1e-9)) "empty qps" 0.0 s.Window.qps;
  Alcotest.(check bool) "empty p95 is nan" true (Float.is_nan s.Window.p95);
  (* Writing a slot in a later second reclaims it instead of merging. *)
  Timeseries.observe w ~now:(t0 +. 120.0) 5.0;
  let s = Window.summary ~now:(t0 +. 120.0) w in
  Alcotest.(check int) "reclaimed slot holds one sample" 1 s.Window.count;
  Alcotest.(check (float 1e-9)) "max of the survivor" 5.0 s.Window.max_ms

let test_window_percentiles_and_errors () =
  let w = Window.get "t.win.pct" in
  let now = 5000.0 in
  for i = 1 to 100 do
    Timeseries.observe w ~now ~error:(i mod 10 = 0) (float_of_int i)
  done;
  let s = Window.summary ~now w in
  Alcotest.(check int) "count" 100 s.Window.count;
  Alcotest.(check int) "errors" 10 s.Window.errors;
  Alcotest.(check (float 1e-9)) "error rate" 0.1 s.Window.error_rate;
  Alcotest.(check bool)
    (Printf.sprintf "p50 = %.2f within 9%% of 50" s.Window.p50)
    true
    (s.Window.p50 >= 45.0 && s.Window.p50 <= 56.0);
  Alcotest.(check bool)
    (Printf.sprintf "p99 = %.2f within [90, 100]" s.Window.p99)
    true
    (s.Window.p99 >= 90.0 && s.Window.p99 <= 100.0);
  Alcotest.(check (float 1e-9)) "max clamps exactly" 100.0 s.Window.max_ms;
  Alcotest.(check (float 1e-6)) "mean" 50.5 s.Window.mean_ms

(* A second keeps counts only over the bucket range it has seen, grown
   downwards and upwards as latencies arrive: the merged window must give
   the percentiles a full histogram of the same samples gives. *)
let test_window_ranges_match_histogram () =
  let w = Window.get "t.win.range" in
  let h = Histogram.create "t.win.range.ref" in
  let r = Random.State.make [| 17 |] in
  for i = 0 to 599 do
    let ms = Float.exp (Random.State.float r 12.0 -. 6.0) in
    Timeseries.observe w ~now:(7000.0 +. float_of_int (i / 200)) ms;
    Histogram.observe h ms
  done;
  let s = Window.summary ~now:7002.0 w in
  Alcotest.(check int) "count" 600 s.Window.count;
  List.iter
    (fun (name, p, got) ->
      Alcotest.(check (float 1e-9)) name (Histogram.percentile h p) got)
    [ ("p50", 0.5, s.Window.p50); ("p95", 0.95, s.Window.p95); ("p99", 0.99, s.Window.p99) ]

let test_window_summary_json_roundtrip () =
  let w = Window.get "t.win.json" in
  let now = 6000.0 in
  Timeseries.observe w ~now 1.5;
  Timeseries.observe w ~now ~error:true 3.0;
  let s = Window.summary ~now w in
  (match Window.summary_of_json (Window.to_json ~now w) with
  | None -> Alcotest.fail "summary_json did not parse back"
  | Some s' ->
    Alcotest.(check int) "count survives" s.Window.count s'.Window.count;
    Alcotest.(check int) "errors survive" s.Window.errors s'.Window.errors;
    Alcotest.(check (float 1e-9)) "qps survives" s.Window.qps s'.Window.qps;
    Alcotest.(check (float 1e-9)) "p95 survives" s.Window.p95 s'.Window.p95);
  (* An empty window's nan percentiles serialize as null and come back
     as nan, not as a parse failure. *)
  match Window.summary_of_json (Window.to_json ~now (Window.get "t.win.empty")) with
  | None -> Alcotest.fail "empty summary did not parse back"
  | Some e -> Alcotest.(check bool) "nan p50 roundtrips" true (Float.is_nan e.Window.p50)

(* --- query log ---------------------------------------------------------- *)

(* The query log's rotation threshold unless a test sets one. *)
let qlog_default_max_bytes = 64 * 1024 * 1024

(* One event line, read back through [Qlog.load]. *)
let parse_event json =
  match Testkit.load_text Qlog.load (Json.to_string json) with
  | Ok [ e ] -> Ok e
  | Ok events -> Error (Printf.sprintf "%d events from one line" (List.length events))
  | Error e -> Error e

let with_qlog_sink path f =
  Qlog.set_sink (Some path);
  Fun.protect
    ~finally:(fun () ->
      Qlog.set_sink None;
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"))
    f

(* A query-log record for the sink tests; each test overrides the
   fields it looks at. *)
let qlog_event =
  {
    Qlog.seq = 0;
    ts_unix = 0.0;
    kind = Qlog.Query;
    graph_id = 1;
    epoch = 0;
    query = "fp";
    strategy = "direct";
    duration_ms = 0.1;
    counters = [];
    pairs = 0;
    digest = "d";
    slow = false;
    trace_id = "";
    error = None;
    payload = None;
  }

let test_qlog_emit_load_roundtrip () =
  let path = Filename.temp_file "expfinder-qlog" ".jsonl" in
  with_qlog_sink path (fun () ->
      Alcotest.(check bool) "sink configured" true (Qlog.enabled ());
      Qlog.write
        {
          qlog_event with
          graph_id = 7;
          epoch = 3;
          query = "fp1";
          duration_ms = 1.25;
          counters = [ ("bsim.removals", 2) ];
          pairs = 9;
          digest = "abc123";
          payload = Some (Json.Str "pattern-text");
        };
      Qlog.write
        {
          qlog_event with
          kind = Qlog.Update;
          graph_id = 7;
          epoch = 4;
          query = "update";
          strategy = "updates";
          pairs = 2;
          digest = "";
          error = Some "boom";
        };
      Qlog.close ();
      match Qlog.load path with
      | Error e -> Alcotest.fail e
      | Ok [ e1; e2 ] ->
        Alcotest.(check bool) "kinds survive" true
          (e1.Qlog.kind = Qlog.Query && e2.Qlog.kind = Qlog.Update);
        Alcotest.(check int) "graph id survives" 7 e1.Qlog.graph_id;
        Alcotest.(check int) "epoch survives" 4 e2.Qlog.epoch;
        Alcotest.(check string) "digest survives" "abc123" e1.Qlog.digest;
        Alcotest.(check bool) "seq is monotonic" true (e2.Qlog.seq > e1.Qlog.seq);
        Alcotest.(check bool) "counters survive" true
          (e1.Qlog.counters = [ ("bsim.removals", 2) ]);
        Alcotest.(check bool) "payload survives" true
          (e1.Qlog.payload = Some (Json.Str "pattern-text"));
        Alcotest.(check bool) "error survives" true (e2.Qlog.error = Some "boom");
        Alcotest.(check bool) "no payload stays absent" true (e2.Qlog.payload = None)
      | Ok events -> Alcotest.failf "expected 2 events, loaded %d" (List.length events))

let test_qlog_event_json_rejects_other_schema () =
  let bad =
    Json.Obj
      [ ("v", Json.Int 999); ("seq", Json.Int 0); ("kind", Json.Str "query"); ("query", Json.Str "x") ]
  in
  match parse_event bad with
  | Ok _ -> Alcotest.fail "schema version 999 should be rejected"
  | Error e -> Alcotest.(check bool) "error names the version" true (String.length e > 0)

let test_qlog_rotation () =
  let path = Filename.temp_file "expfinder-qlog-rot" ".jsonl" in
  let old_max = qlog_default_max_bytes in
  Qlog.set_max_bytes 4096;
  Fun.protect
    ~finally:(fun () -> Qlog.set_max_bytes old_max)
    (fun () ->
      with_qlog_sink path (fun () ->
          (* Each event is ~150 bytes; 100 of them must cross the 4 KiB
             ceiling and rotate at least once. *)
          for i = 0 to 99 do
            Qlog.write { qlog_event with epoch = i; query = "fp-rotation"; pairs = 1 }
          done;
          Qlog.close ();
          Alcotest.(check bool) "archived generation exists" true
            (Sys.file_exists (path ^ ".1"));
          let size p = (Unix.stat p).Unix.st_size in
          Alcotest.(check bool) "live file stayed under the ceiling" true (size path <= 4096);
          Alcotest.(check bool) "archive stayed under the ceiling" true
            (size (path ^ ".1") <= 4096);
          (* Both generations still parse, and together they kept the
             newest events. *)
          match (Qlog.load path, Qlog.load (path ^ ".1")) with
          | Ok live, Ok archived ->
            Alcotest.(check bool) "both generations parse" true
              (live <> [] && archived <> []);
            let last = List.nth live (List.length live - 1) in
            Alcotest.(check int) "newest event survived" 99 last.Qlog.epoch
          | Error e, _ | _, Error e -> Alcotest.fail e))

(* Sink I/O failures disable the log instead of raising into the
   serving path: writing to a path whose directory does not exist must
   return normally and leave the sink off. *)
let test_qlog_unwritable_sink_disables () =
  Qlog.set_sink (Some "/nonexistent-expfinder-dir/qlog.jsonl");
  Fun.protect
    ~finally:(fun () -> Qlog.set_sink None)
    (fun () ->
      Alcotest.(check bool) "sink configured" true (Qlog.enabled ());
      Qlog.write qlog_event;
      Alcotest.(check bool) "sink disabled after the failure" false (Qlog.enabled ());
      (* Further writes are no-ops, not repeated failures. *)
      Qlog.write { qlog_event with epoch = 1 })

(* Replay must verify across a rotation boundary: capture enough served
   queries to rotate the log, then replay the concatenation of the
   archived and live generations against a fresh engine. *)
let test_qlog_replay_across_rotation () =
  let path = Filename.temp_file "expfinder-qlog-replay" ".jsonl" in
  let old_max = qlog_default_max_bytes in
  Qlog.set_max_bytes 4096;
  Fun.protect
    ~finally:(fun () -> Qlog.set_max_bytes old_max)
    (fun () ->
      with_qlog_sink path (fun () ->
          let engine = Engine.create (Collab.graph ()) in
          let q = Collab.query () in
          for _ = 1 to 60 do
            ignore (Engine.evaluate engine q : Engine.answer)
          done;
          Qlog.close ();
          Alcotest.(check bool) "log rotated" true (Sys.file_exists (path ^ ".1"));
          let load p =
            match Qlog.load p with Ok e -> e | Error e -> Alcotest.fail e
          in
          let archived = load (path ^ ".1") and live = load path in
          Alcotest.(check bool) "both generations hold events" true
            (archived <> [] && live <> []);
          let events = archived @ live in
          (* The archive is the generation written immediately before
             the live file: sequence numbers must be contiguous
             across the boundary, or rotation dropped events. *)
          let rec contiguous = function
            | a :: (b :: _ as t) -> b.Qlog.seq = a.Qlog.seq + 1 && contiguous t
            | _ -> true
          in
          Alcotest.(check bool) "seq contiguous across the boundary" true
            (contiguous events);
          Qlog.set_sink None;
          let fresh = Engine.create (Collab.graph ()) in
          let summary = Replay.run fresh events in
          Alcotest.(check int) "no digest mismatches" 0 summary.Replay.mismatches;
          Alcotest.(check int) "every event replayed" summary.Replay.total
            summary.Replay.replayed))

(* --- timeseries --------------------------------------------------------- *)

(* Ring math with a pinned clock: per-slot merging, exact downsampling
   into the coarse ring, and wrap-around expiry once the fine ring's
   span passes. *)
(* [(res_s, slots)] per ring, as the document lists them. *)
let resolutions ts =
  match Json.member "resolutions" (Timeseries.to_json ts) with
  | Some (Json.Arr rings) ->
    List.map
      (fun r ->
        match (Json.member "res_s" r, Json.member "slots" r) with
        | Some (Json.Int res), Some (Json.Int slots) -> (res, slots)
        | _ -> Alcotest.fail "ring without res_s/slots")
      rings
  | _ -> Alcotest.fail "timeseries document without resolutions"

let test_timeseries_ring_math () =
  let module T = Timeseries in
  let ts = T.create () in
  let base = 1_000_000.0 in
  (* Two samples in one second merge into one slot. *)
  T.record ~now:base ts T.Level "lvl" 5.0;
  T.record ~now:(base +. 0.4) ts T.Level "lvl" 3.0;
  T.record ~now:(base +. 1.0) ts T.Level "lvl" 7.0;
  (match T.points ~now:(base +. 1.0) ts ~seconds:4 "lvl" with
  | [ p0; p1 ] ->
    Alcotest.(check int) "slot 0 merged two samples" 2 p0.T.n;
    Alcotest.(check (float 1e-9)) "slot 0 sum" 8.0 p0.T.sum;
    Alcotest.(check (float 1e-9)) "slot 0 min" 3.0 p0.T.vmin;
    Alcotest.(check (float 1e-9)) "slot 0 max" 5.0 p0.T.vmax;
    Alcotest.(check (float 1e-9)) "slot 0 last" 3.0 p0.T.last;
    Alcotest.(check int) "points come back oldest first" 1 (p1.T.t_unix - p0.T.t_unix)
  | ps -> Alcotest.failf "expected 2 points, got %d" (List.length ps));
  Alcotest.(check bool) "kind registered" true
    (Option.bind (Json.member "series_kinds" (T.to_json ts)) (Json.member "lvl")
    = Some (Json.Str "level"));
  (* The coarse ring is an exact downsample: same records, one slot.
     200 s is past the fine ring's 120 s span, so the 10 s ring answers. *)
  (match T.points ~now:(base +. 1.0) ts ~seconds:200 "lvl" with
  | [ p ] ->
    Alcotest.(check int) "coarse slot merged all three" 3 p.T.n;
    Alcotest.(check (float 1e-9)) "coarse sum" 15.0 p.T.sum;
    Alcotest.(check int) "coarse resolution" 10 p.T.res_s
  | ps -> Alcotest.failf "expected 1 coarse point, got %d" (List.length ps));
  (* Wrap-around: 120 slots of 1 s — recording 121 s later reuses the
     index of the second slot, and the first slot's index, read as the
     slot 120 s on, is stale: neither may resurface. *)
  T.record ~now:(base +. 121.0) ts T.Level "lvl" 100.0;
  (match T.points ~now:(base +. 121.0) ts ~seconds:120 "lvl" with
  | [ p ] -> Alcotest.(check (float 1e-9)) "only the fresh slot survives" 100.0 p.T.last
  | ps -> Alcotest.failf "expected 1 point after wrap, got %d" (List.length ps));
  (* Rate series aggregate by summing. *)
  T.record ~now:(base +. 121.0) ts T.Rate "rate" 4.0;
  T.record ~now:(base +. 122.0) ts T.Rate "rate" 5.0;
  Alcotest.(check (float 1e-9)) "window_sum sums rate deltas" 9.0
    (List.fold_left (fun acc p -> acc +. p.T.sum) 0.0 (T.points ~now:(base +. 122.0) ts ~seconds:4 "rate"));
  (* Non-finite samples are dropped, not retained as poison. *)
  T.record ~now:(base +. 122.0) ts T.Level "lvl" Float.nan;
  Alcotest.(check int) "nan dropped" 1
    (List.length (T.points ~now:(base +. 122.0) ts ~seconds:2 "lvl"))

let test_timeseries_to_json_shape () =
  let module T = Timeseries in
  let ts = T.create () in
  Alcotest.(check (list (pair int int)))
    "default retention is 1s/10s/60s" [ (1, 120); (10, 360); (60, 720) ] (resolutions ts);
  let now = 2_000_000.0 in
  T.record ~now ts T.Level "a" 1.0;
  T.record ~now ts T.Rate "b" 2.0;
  let doc = T.to_json ~now ~max_points:10 ts in
  (match Option.bind (Json.member "resolutions" doc) Json.list_opt with
  | Some rings ->
    Alcotest.(check int) "one document entry per resolution" 3 (List.length rings);
    List.iter
      (fun ring ->
        match Option.bind (Json.member "series" ring) (fun s -> Json.member "a" s) with
        | Some (Json.Arr [ Json.Arr (Json.Int _ :: _) ]) -> ()
        | _ -> Alcotest.fail "series 'a' must appear as one point array in every ring")
      rings
  | None -> Alcotest.fail "document lacks resolutions");
  match Option.bind (Json.member "series_kinds" doc) (fun k -> Json.member "b" k) with
  | Some (Json.Str "rate") -> ()
  | _ -> Alcotest.fail "series_kinds must carry the rate kind"

let test_timeseries_max_points () =
  let module T = Timeseries in
  let ts = T.create () in
  let base = 3_000_000.0 in
  for i = 0 to 4 do
    T.record ~now:(base +. float_of_int i) ts T.Level "x" (float_of_int i)
  done;
  let doc = T.to_json ~now:(base +. 4.0) ~max_points:2 ts in
  let last_of = function Json.Arr (_ :: last :: _) -> Testkit.float_of_json last | _ -> None in
  match Option.bind (Json.member "resolutions" doc) Json.list_opt with
  | Some (fine :: _) -> (
    match Option.bind (Json.member "series" fine) (Json.member "x") with
    | Some (Json.Arr pts) ->
      Alcotest.(check (list (option (float 1e-9))))
        "the newest two points, oldest first" [ Some 3.0; Some 4.0 ] (List.map last_of pts)
    | _ -> Alcotest.fail "series 'x' missing")
  | _ -> Alcotest.fail "expected the 1 s resolution first"

let test_timeseries_capture_load_report () =
  let module T = Timeseries in
  let path = Filename.temp_file "expfinder-ts" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "{\"v\":1,\"ts_unix\":100.0,\"fields\":{\"win.query.qps\":2.0,\"process.rss_bytes\":1000}}\n\n\
         {\"v\":1,\"ts_unix\":101.0,\"fields\":{\"win.query.qps\":4.0,\"process.rss_bytes\":1100}}\n";
      close_out oc;
      match T.load path with
      | Error e -> Alcotest.fail e
      | Ok ticks ->
        Alcotest.(check int) "two ticks (blank line skipped)" 2 (List.length ticks);
        Alcotest.(check (float 1e-9)) "timestamps parse" 100.0 (List.hd ticks).T.ts_unix;
        let r = T.report ticks in
        let ids = List.map (fun rec_ -> rec_.Report.id) (Report.records r) in
        Alcotest.(check bool) "one record per series" true
          (List.mem "TS.win.query.qps" ids && List.mem "TS.process.rss_bytes" ids))

(* The sampler thread writes the shared store while HTTP handlers
   render it: fresh series names registered under a concurrent
   [to_json] must neither raise nor go missing, and renders that run
   back to back must not hold the writer up.  The registry is swapped
   whole on each registration and readers take no lock, so the test
   runs 20 rounds of renders with no pause between them. *)
let test_timeseries_concurrent_render () =
  let module T = Timeseries in
  let now = 4_000_000.0 in
  let names = List.init 500 (Printf.sprintf "conc.%d") in
  for _ = 1 to 20 do
    let ts = T.create () in
    let done_ = Atomic.make false in
    let writer =
      Domain.spawn (fun () ->
          Fun.protect
            ~finally:(fun () -> Atomic.set done_ true)
            (fun () -> List.iter (fun name -> T.record ~now ts T.Level name 1.0) names))
    in
    let renders = ref 0 in
    while not (Atomic.get done_) do
      ignore (T.to_json ~now ~max_points:1 ts : Json.t);
      incr renders
    done;
    Domain.join writer;
    Alcotest.(check bool) "rendered while recording" true (!renders > 0);
    match Json.member "series_kinds" (T.to_json ~now ~max_points:1 ts) with
    | Some (Json.Obj kinds) ->
      Alcotest.(check (list string)) "every name listed" names (List.map fst kinds)
    | _ -> Alcotest.fail "document lacks series_kinds"
  done

let test_timeseries_load_rejects_garbage () =
  let path = Filename.temp_file "expfinder-ts-bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"v\":1,\"ts_unix\":1.0,\"fields\":{}}\nnot json\n";
      close_out oc;
      match Timeseries.load path with
      | Ok _ -> Alcotest.fail "garbage line must be rejected"
      | Error e ->
        Alcotest.(check bool) "error names the line" true
          (String.length e > 0
          && String.fold_left (fun acc c -> acc || c = '2') false e))

(* --- SLO burn-rate alerts ----------------------------------------------- *)

(* A multiple of the coarse ring's 10 s, so slots line up with seconds. *)
let base_slo = 3_000_000.0

(* The fixed policy's windows (fast 300 s / slow 3600 s, burn 14.4 /
   6.0) in simulated, pinned time: the fire -> clear cycle runs over a
   dozen simulated minutes.  A 99% objective has a 0.01 budget, so an
   all-error second burns at 100x. *)
let test_slo_fire_and_clear () =
  let module T = Timeseries in
  let ts = T.create () in
  let w = T.requests ts "query" in
  Slo.set_objectives [ Slo.availability ~op:"query" ~target:0.99 () ];
  (* 10 requests a second, [errors] of them failing. *)
  let traffic ~from ~until ~errors =
    for i = from to until do
      let now = base_slo +. float_of_int i in
      for k = 1 to 10 do
        T.observe w ~error:(k <= errors) ~now 1.0
      done
    done
  in
  Fun.protect
    ~finally:(fun () -> Slo.set_objectives [])
    (fun () ->
      (* Healthy traffic: 10 req/s, no errors. *)
      traffic ~from:0 ~until:299 ~errors:0;
      (match Slo.evaluate ~now:(base_slo +. 299.0) ~ts () with
      | [ a ] -> Alcotest.(check bool) "healthy run passes" true (a.Slo.state = Slo.Passing)
      | _ -> Alcotest.fail "one objective, one alert");
      (* Outage: every request errors for 100 s, a third of the fast
         window and a quarter of the slow one. *)
      traffic ~from:300 ~until:399 ~errors:10;
      (match Slo.evaluate ~now:(base_slo +. 399.0) ~ts () with
      | [ a ] ->
        Alcotest.(check bool) "outage fires" true (a.Slo.state = Slo.Firing);
        Alcotest.(check bool) "fast burn exceeds threshold" true (a.Slo.burn_fast >= 14.4);
        Alcotest.(check bool) "slow burn exceeds threshold" true (a.Slo.burn_slow >= 6.0)
      | _ -> Alcotest.fail "one objective, one alert");
      (* Firing state surfaces in the document. *)
      (match Json.member "alerts" (Slo.to_json ~now:(base_slo +. 399.0) ()) with
      | Some (Json.Arr [ a ]) ->
        Alcotest.(check bool) "document says firing" true
          (Json.member "firing" a = Some (Json.Bool true))
      | _ -> Alcotest.fail "alerts document shape");
      (* Recovery: a healthy fast window clears the alert even while the
         slow window still remembers the outage (multi-window rule). *)
      traffic ~from:400 ~until:719 ~errors:0;
      match Slo.evaluate ~now:(base_slo +. 719.0) ~ts () with
      | [ a ] ->
        Alcotest.(check bool) "recovery clears" true (a.Slo.state = Slo.Passing);
        Alcotest.(check bool) "the slow window still burns" true (a.Slo.burn_slow >= 6.0)
      | _ -> Alcotest.fail "one objective, one alert")

(* --- prometheus --------------------------------------------------------- *)

let contains_line body line = List.mem line (String.split_on_char '\n' body)

let contains_substr haystack needle =
  let n = String.length haystack and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub haystack i k = needle || scan (i + 1)) in
  scan 0

let test_prometheus_collision_and_metadata () =
  (* "a.b" and "a:b" both sanitize to expfinder_collide_a_b: the
     render must keep them distinct, deterministically. *)
  let c1 = Metrics.counter "collide.a.b" in
  let c2 = Metrics.counter "collide.a:b" in
  Counter.incr c1;
  Counter.add c2 2;
  ignore (process_stats () : (string * int) list);
  let body = Prometheus.render () in
  let names =
    List.filter_map
      (fun l ->
        if String.length l > 0 && l.[0] <> '#' then
          match String.index_opt l ' ' with
          | Some i -> Some (String.sub l 0 i)
          | None -> None
        else None)
      (String.split_on_char '\n' body)
  in
  let collide = List.filter (fun n -> contains_substr n "expfinder_collide_a_b") names in
  let uniq = List.sort_uniq compare collide in
  Alcotest.(check int) "both colliding families exported" 2 (List.length uniq);
  (* Every collider is disambiguated with a digest suffix; the bare
     sanitized token would be ambiguous, so nobody keeps it. *)
  Alcotest.(check bool) "no collider keeps the ambiguous plain name" false
    (List.mem "expfinder_collide_a_b" uniq);
  (* Same input, same disambiguation. *)
  let body2 = Prometheus.render () in
  let pick b =
    List.sort_uniq compare
      (List.filter (fun n -> contains_substr n "expfinder_collide_a_b")
         (List.filter_map
            (fun l ->
              if String.length l > 0 && l.[0] <> '#' then
                Option.map (fun i -> String.sub l 0 i) (String.index_opt l ' ')
              else None)
            (String.split_on_char '\n' b)))
  in
  Alcotest.(check (list string)) "disambiguation is deterministic" (pick body) (pick body2);
  (* Every sample's family carries # HELP and # TYPE. *)
  let lines = String.split_on_char '\n' body in
  let helped =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "#" :: "HELP" :: name :: _ -> Some name
        | _ -> None)
      lines
  in
  let typed =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "#" :: "TYPE" :: name :: _ -> Some name
        | _ -> None)
      lines
  in
  let strip_suffix s suf =
    let ls = String.length s and lf = String.length suf in
    if ls > lf && String.sub s (ls - lf) lf = suf then String.sub s 0 (ls - lf)
    else s
  in
  List.iter
    (fun n ->
      let base =
        match String.index_opt n '{' with Some i -> String.sub n 0 i | None -> n
      in
      (* Summary families expose [_sum]/[_count] samples whose
         metadata lives on the base family name. *)
      let family =
        if List.mem base helped then base
        else strip_suffix (strip_suffix base "_sum") "_count"
      in
      Alcotest.(check bool) (family ^ " has HELP") true (List.mem family helped);
      Alcotest.(check bool) (family ^ " has TYPE") true (List.mem family typed))
    names;
  (* Uptime is a first-class gauge with a stable name. *)
  Alcotest.(check bool) "uptime gauge exported" true
    (List.mem "expfinder_uptime_seconds" names)

let test_prometheus_alert_gauges () =
  let module T = Timeseries in
  let ts = T.create () in
  Slo.set_objectives [ Slo.availability ~op:"query" ~target:0.99 () ];
  Fun.protect
    ~finally:(fun () -> Slo.set_objectives [])
    (fun () ->
      let base = 5_000_000.0 in
      let w = T.requests ts "query" in
      for i = 0 to 8 do
        let now = base +. float_of_int i in
        for _ = 1 to 10 do
          T.observe w ~error:true ~now 1.0
        done
      done;
      ignore (Slo.evaluate ~now:(base +. 8.0) ~ts () : Slo.alert list);
      let body = Prometheus.render () in
      Alcotest.(check bool) "firing alert exported as 1" true
        (contains_line body
           "expfinder_alert_active{alert=\"query-availability\",op=\"query\"} 1");
      Alcotest.(check bool) "burn gauges exported" true
        (contains_substr body
           "expfinder_alert_burn{alert=\"query-availability\",op=\"query\",window=\"fast\"}"))

(* --- postmortem --------------------------------------------------------- *)

let test_postmortem_roundtrip () =
  let dir = Filename.temp_file "expfinder-pm" "" in
  Sys.remove dir;
  Postmortem.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Postmortem.set_dir None;
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      match Postmortem.write ~reason:"unit-test crash" () with
      | None -> Alcotest.fail "postmortem write failed with a configured dir"
      | Some path ->
        Alcotest.(check bool) "artifact exists" true (Sys.file_exists path);
        Alcotest.(check bool) "no tmp file left behind" false (Sys.file_exists (path ^ ".tmp"));
        (match Postmortem.load path with
        | Error e -> Alcotest.fail e
        | Ok doc ->
          Alcotest.(check bool) "reason survives" true
            (Json.member "reason" doc = Some (Json.Str "unit-test crash"));
          Alcotest.(check bool) "pid recorded" true
            (Json.member "pid" doc = Some (Json.Int (Unix.getpid ())));
          Alcotest.(check bool) "gc stats present" true (Json.member "gc" doc <> None);
          Alcotest.(check bool) "alerts embedded" true (Json.member "alerts" doc <> None);
          Alcotest.(check bool) "timeseries embedded" true
            (Json.member "timeseries" doc <> None);
          let pretty = Format.asprintf "%a" Postmortem.pp doc in
          Alcotest.(check bool) "pp mentions the reason" true
            (contains_substr pretty "unit-test crash")))

let test_postmortem_without_dir_is_inert () =
  Postmortem.set_dir None;
  Fun.protect
    ~finally:(fun () -> Postmortem.set_dir None)
    (fun () ->
      Alcotest.(check bool) "write without a dir returns None" true
        (Postmortem.write ~reason:"x" () = None))

(* --- gc pauses ------------------------------------------------------- *)

(* One set of books: every pause total is read from the per-domain
   [gc.domain<i>.pause_us] histograms, so the process gauges, the
   per-domain rows and the histograms agree. *)
let test_gcpause_books () =
  let started = Gcpause.start () in
  Gc.full_major ();
  (* [process_stats] polls the runtime's event ring first. *)
  let stats = process_stats () in
  let gauge name =
    match List.assoc_opt name stats with Some v -> v | None -> Alcotest.failf "no %s" name
  in
  let rows = Gcpause.by_domain () in
  let total = List.fold_left (fun acc d -> acc + d.Gcpause.pause_us_total) 0 rows in
  let max_ = List.fold_left (fun acc d -> max acc d.Gcpause.pause_us_max) 0 rows in
  let slack = List.length rows in
  if started then begin
    Alcotest.(check bool) "a forced major collection shows in some domain" true
      (List.exists (fun d -> d.Gcpause.slices > 0) rows);
    Alcotest.(check bool) "per-domain totals sum to the total gauge" true
      (abs (total - gauge "process.gc_pause_us_total") <= slack);
    Alcotest.(check bool) "per-domain maxima peak at the max gauge" true
      (abs (max_ - gauge "process.gc_pause_us_max") <= 1);
    List.iter
      (fun d ->
        let h = Metrics.histogram (Printf.sprintf "gc.domain%d.pause_us" d.Gcpause.domain) in
        Alcotest.(check int)
          (Printf.sprintf "domain %d slices = its histogram's count" d.Gcpause.domain)
          (Histogram.count h) d.Gcpause.slices)
      rows
  end
  else begin
    Alcotest.(check (list int)) "inert: no domain rows" [] (List.map (fun d -> d.Gcpause.domain) rows);
    Alcotest.(check int) "inert: total gauge reads 0" 0 (gauge "process.gc_pause_us_total");
    Alcotest.(check int) "inert: max gauge reads 0" 0 (gauge "process.gc_pause_us_max")
  end

(* --- window totals --------------------------------------------------------- *)

let test_window_totals () =
  let w = Window.get "t.totals" in
  Alcotest.(check (pair int int)) "fresh totals" (0, 0) (Window.totals w);
  let now = 6_000_000.0 in
  Timeseries.observe w ~now 1.0;
  Timeseries.observe w ~error:true ~now 2.0;
  (* Lifetime totals must survive the ring sliding past the
     observations — that is what the sampler differentiates. *)
  Timeseries.observe w ~now:(now +. 100.0) 3.0;
  Alcotest.(check (pair int int)) "totals outlive the ring" (3, 1) (Window.totals w);
  let s = Window.summary ~now:(now +. 100.0) w in
  Alcotest.(check int) "ring forgot the old requests" 1 s.Window.count;
  Window.reset w;
  Alcotest.(check (pair int int)) "reset zeroes totals" (0, 0) (Window.totals w)

(* One set of books: the 60 s summary, the [req.query]/[err.query]
   points and the counts the SLO evaluator reads for its 300 s window
   all come from the query request series, so at one pinned clock they
   agree exactly. *)
let test_signals_agree () =
  let w = Window.get "query" in
  Window.reset w;
  Slo.set_objectives [ Slo.availability ~op:"query" ~target:0.99 () ];
  Fun.protect
    ~finally:(fun () ->
      Slo.set_objectives [];
      Window.reset w;
      Tracestore.clear ();
      Recorder.clear ())
    (fun () ->
      let served = 37 and failing = 5 in
      for i = 1 to served do
        Request.finish ~kind:Qlog.Query ~trace:(Trace.make ()) ~query:"q" ~strategy:"direct"
          ~duration_ms:(0.1 *. float_of_int i) ~counters:[] ~pairs:1
          ?error:(if i mod 7 = 0 then Some "boom" else None)
          ~graph_id:0 ~epoch:0 ()
      done;
      let now = Unix.gettimeofday () in
      let s = Window.summary ~now w in
      Alcotest.(check int) "summary counts every request" served s.Window.count;
      Alcotest.(check int) "summary counts every error" failing s.Window.errors;
      let sum ~seconds name =
        int_of_float
          (List.fold_left
             (fun acc p -> acc +. p.Timeseries.sum)
             0.0
             (Timeseries.points ~now Timeseries.shared ~seconds name))
      in
      Alcotest.(check int) "req.query points = summary count" s.Window.count
        (sum ~seconds:60 "req.query");
      Alcotest.(check int) "err.query points = summary errors" s.Window.errors
        (sum ~seconds:60 "err.query");
      (* The fast window is 300 s, read from the 10 s tier. *)
      let req = sum ~seconds:300 "req.query" and err = sum ~seconds:300 "err.query" in
      Alcotest.(check int) "SLO fast-window requests = summary count" s.Window.count req;
      Alcotest.(check int) "SLO fast-window errors = summary errors" s.Window.errors err;
      match Slo.evaluate ~now () with
      | [ a ] ->
        Alcotest.(check (float 0.0)) "SLO bad fraction = errors / requests"
          (float_of_int s.Window.errors /. float_of_int s.Window.count)
          a.Slo.bad_fast
      | _ -> Alcotest.fail "one objective, one alert")

(* --- histogram percentile bounds (property) ----------------------------- *)

(* The log-scale buckets promise ~9% relative resolution: the reported
   percentile is the upper bound of the bucket holding the exact
   rank-statistic, clamped to [min, max].  So for positive samples the
   estimate can never undershoot the exact percentile and can overshoot
   it by at most one bucket width (factor 2^(1/8)). *)
let qcheck_histogram_percentile_bound =
  let gen =
    QCheck.make
      ~print:(fun (samples, p) ->
        Printf.sprintf "p=%.3f samples=[%s]" p
          (String.concat "; " (List.map (Printf.sprintf "%.6g") samples)))
      QCheck.Gen.(
        pair
          (list_size (int_range 1 200) (map (fun f -> 1e-6 +. (f *. 1e6)) (float_bound_exclusive 1.0)))
          (float_range 0.01 0.99))
  in
  QCheck.Test.make ~count:200 ~name:"percentile within one log bucket of exact" gen
    (fun (samples, p) ->
      let h = Histogram.create "t.hist.prop" in
      List.iter (Histogram.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = Stdlib.max 1 (int_of_float (ceil (p *. float_of_int n))) in
      let exact = List.nth sorted (rank - 1) in
      let estimate = Histogram.percentile h p in
      estimate >= exact *. (1.0 -. 1e-6)
      && estimate <= exact *. ((2.0 ** 0.125) +. 1e-6))

(* --- Report.diff degenerate inputs -------------------------------------- *)

let test_report_diff_zero_iqr () =
  (* Identical samples have iqr = 0, so the Tukey fences collapse to a
     point: any threshold-crossing change is flagged, equal runs are
     not, and nothing divides by zero. *)
  let baseline = Report.create () and candidate = Report.create () in
  Report.add baseline ~id:"D.same" [ 10.0; 10.0; 10.0 ];
  Report.add candidate ~id:"D.same" [ 10.0; 10.0; 10.0 ];
  Report.add baseline ~id:"D.doubles" [ 10.0; 10.0; 10.0 ];
  Report.add candidate ~id:"D.doubles" [ 20.0; 20.0; 20.0 ];
  let comparisons = Report.diff ~baseline ~candidate () in
  let verdict id =
    (List.find (fun c -> c.Report.cid = id) comparisons).Report.verdict
  in
  Alcotest.(check bool) "identical zero-iqr runs are unchanged" true
    (verdict "D.same" = Report.Unchanged);
  Alcotest.(check bool) "doubling with zero iqr is a regression" true
    (verdict "D.doubles" = Report.Regression);
  Alcotest.(check bool) "has_regression sees it" true (Report.has_regression comparisons)

let test_report_diff_single_sample () =
  (* One sample per side: median = q1 = q3 = the sample; the rule still
     works and a big jump is not hidden by fake noise fences. *)
  let baseline = Report.create () and candidate = Report.create () in
  Report.add baseline ~id:"S.jump" [ 10.0 ];
  Report.add candidate ~id:"S.jump" [ 30.0 ];
  Report.add baseline ~id:"S.flat" [ 10.0 ];
  Report.add candidate ~id:"S.flat" [ 10.0 ];
  let comparisons = Report.diff ~baseline ~candidate () in
  let by_id id = List.find (fun c -> c.Report.cid = id) comparisons in
  Alcotest.(check bool) "single-sample jump is a regression" true
    ((by_id "S.jump").Report.verdict = Report.Regression);
  Alcotest.(check (float 1e-9)) "ratio is computed" 3.0 (by_id "S.jump").Report.ratio;
  Alcotest.(check bool) "single-sample identical is unchanged" true
    ((by_id "S.flat").Report.verdict = Report.Unchanged)

let test_report_diff_missing_side () =
  (* Records present on only one side are Added/Removed, never a
     regression, and their unpaired medians are nan where absent. *)
  let baseline = Report.create () and candidate = Report.create () in
  Report.add baseline ~id:"M.removed" [ 10.0; 11.0 ];
  Report.add candidate ~id:"M.added" [ 5.0; 6.0 ];
  let comparisons = Report.diff ~baseline ~candidate () in
  let by_id id = List.find (fun c -> c.Report.cid = id) comparisons in
  Alcotest.(check bool) "baseline-only is removed" true
    ((by_id "M.removed").Report.verdict = Report.Removed);
  Alcotest.(check bool) "candidate-only is added" true
    ((by_id "M.added").Report.verdict = Report.Added);
  Alcotest.(check bool) "removed has nan new median" true
    (Float.is_nan (by_id "M.removed").Report.new_median);
  Alcotest.(check bool) "added has nan old median" true
    (Float.is_nan (by_id "M.added").Report.old_median);
  Alcotest.(check bool) "added has nan ratio" true (Float.is_nan (by_id "M.added").Report.ratio);
  Alcotest.(check bool) "unpaired records never regress" false
    (Report.has_regression comparisons);
  (* Degenerate empty-vs-empty diff. *)
  Alcotest.(check int) "empty reports diff to nothing" 0
    (List.length (Report.diff ~baseline:(Report.create ()) ~candidate:(Report.create ()) ()))

(* --- explicit trace contexts and the trace store ------------------------ *)

let test_trace_mint_and_wire () =
  let ctx = Trace.make ~sampled:true () in
  Alcotest.(check bool) "minted trace id valid" true (Testkit.valid_trace_id ctx.Trace.trace_id);
  Alcotest.(check bool) "minted span id valid" true (Testkit.valid_span_id ctx.Trace.span_id);
  Alcotest.(check bool) "sampled flag kept" true ctx.Trace.sampled;
  let ctx2 = Trace.make () in
  Alcotest.(check bool) "two mints differ" false (ctx.Trace.trace_id = ctx2.Trace.trace_id);
  Alcotest.(check bool) "ambient has no identity" true (Trace.ambient.Trace.trace_id = "");
  (match Trace.of_wire (Trace.to_wire ctx) with
  | Some c ->
    Alcotest.(check string) "tid-sid form roundtrips" ctx.Trace.trace_id c.Trace.trace_id;
    (* The receiving hop is a new span: the trace id is adopted, the
       span id is minted fresh. *)
    Alcotest.(check bool) "adopted context minted its own span id" true
      (Testkit.valid_span_id c.Trace.span_id && c.Trace.span_id <> ctx.Trace.span_id)
  | None -> Alcotest.fail "to_wire form rejected");
  (match Trace.of_wire ~sampled:true (Trace.to_traceparent ctx) with
  | Some c ->
    Alcotest.(check string) "traceparent form roundtrips" ctx.Trace.trace_id c.Trace.trace_id;
    Alcotest.(check bool) "sampled honoured on adoption" true c.Trace.sampled
  | None -> Alcotest.fail "traceparent form rejected");
  match Trace.of_wire ("  " ^ String.uppercase_ascii (Trace.to_wire ctx) ^ " ") with
  | Some c ->
    Alcotest.(check string) "case and whitespace normalised" ctx.Trace.trace_id c.Trace.trace_id
  | None -> Alcotest.fail "normalisable form rejected"

(* Ids minted concurrently on two domains, 100k contexts in all, are
   pairwise distinct and well formed (trace ids among themselves, span
   ids among themselves), and adopting one over the wire keeps its
   trace id and mints a span id none of them used. *)
let test_trace_ids_distinct_across_domains () =
  let per_domain = 50_000 in
  let minted =
    Expfinder_parallel.run ~domains:2 (fun _ -> Array.init per_domain (fun _ -> Trace.make ()))
  in
  let all = Array.concat (Array.to_list minted) in
  Alcotest.(check int) "contexts minted" (2 * per_domain) (Array.length all);
  let distinct field =
    let seen = Hashtbl.create (Array.length all) in
    Array.iter (fun c -> Hashtbl.replace seen (field c) ()) all;
    Hashtbl.length seen
  in
  Alcotest.(check int) "trace ids pairwise distinct" (Array.length all)
    (distinct (fun c -> c.Trace.trace_id));
  Alcotest.(check int) "span ids pairwise distinct" (Array.length all)
    (distinct (fun c -> c.Trace.span_id));
  Alcotest.(check bool) "every trace id valid" true
    (Array.for_all (fun c -> Testkit.valid_trace_id c.Trace.trace_id) all);
  Alcotest.(check bool) "every span id valid" true
    (Array.for_all (fun c -> Testkit.valid_span_id c.Trace.span_id) all);
  let ctx = all.(Array.length all - 1) in
  match Trace.of_wire (Trace.to_wire ctx) with
  | Some adopted ->
    Alcotest.(check string) "trace id adopted" ctx.Trace.trace_id adopted.Trace.trace_id;
    Alcotest.(check bool) "a fresh valid span id" true
      (Testkit.valid_span_id adopted.Trace.span_id
      && Array.for_all (fun c -> c.Trace.span_id <> adopted.Trace.span_id) all)
  | None -> Alcotest.fail "to_wire form rejected"

let test_trace_of_wire_rejects_malformed () =
  let rejected s =
    Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (Trace.of_wire s = None)
  in
  rejected "";
  rejected "not-a-trace";
  rejected "abcd-ef01";
  (* non-hex characters *)
  rejected (String.make 32 'g' ^ "-" ^ String.make 16 '0');
  (* all-zero trace id is the W3C invalid sentinel *)
  rejected (String.make 32 '0' ^ "-" ^ String.make 16 '1');
  (* truncated traceparent *)
  rejected "00-abc-def-01"

let test_trace_collect_sampled () =
  (* A sampled context records a span tree even with the global
     telemetry flag off; the ambient context without the flag records
     nothing. *)
  set_enabled false;
  let ctx = Trace.make ~sampled:true () in
  let v, span =
    Trace.collect ctx "root" (fun () -> with_span "child" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "body ran" 42 v;
  (match span with
  | Some s ->
    Alcotest.(check string) "root span name" "root" (Testkit.span_name (Span.to_json s));
    Alcotest.(check (list string)) "child recorded" [ "root"; "child" ] (Testkit.span_names s)
  | None -> Alcotest.fail "sampled context recorded no span tree");
  let _, ambient_span = Trace.collect Trace.ambient "root" (fun () -> ()) in
  Alcotest.(check bool) "ambient context with flag off records nothing" true
    (ambient_span = None)

let test_span_self_time_and_critical_path () =
  let ctx = Trace.make ~sampled:true () in
  let (), span =
    Trace.collect ctx "root" (fun () ->
        with_span "fast" (fun () -> ());
        with_span "slow" (fun () ->
            with_span "leaf" (fun () -> Unix.sleepf 0.002)))
  in
  let s = match span with Some s -> s | None -> Alcotest.fail "no span tree" in
  (* Through the trace explorer's path: store the tree (errors are
     always admitted), read it back from [/traces.json] and render it. *)
  Tracestore.clear ();
  Alcotest.(check bool) "admitted" true
    (Tracestore.record ~trace_id:ctx.Trace.trace_id ~span_id:ctx.Trace.span_id ~op:"query"
       ~query:"q" ~duration_ms:(Span.duration_ms s) ~error:true ~slow:false ~root:s ());
  let stored =
    match Json.member "traces" (Tracestore.to_json ()) with
    | Some (Json.Arr [ t ]) -> Tracestore.stored_of_json t
    | _ -> None
  in
  let s' =
    match Option.bind stored (fun t -> t.Tracestore.sroot) with
    | Some s' -> s'
    | None -> Alcotest.fail "the stored trace lost its span tree"
  in
  (* to_json/of_json roundtrip: structure and durations survive. *)
  Alcotest.(check (list string)) "names roundtrip" (Testkit.span_names s) (Testkit.span_names s');
  Alcotest.(check (float 1e-9)) "duration roundtrips" (Span.duration_ms s) (Span.duration_ms s');
  (* One rendered line per span: "<*| ><indent><name> <d> ms  self <t> ms",
     starred on the critical path. *)
  let rendered = Format.asprintf "%a" Tracestore.pp_stored (Option.get stored) in
  let rows =
    List.filter_map
      (fun line ->
        match
          Scanf.sscanf line "%c %s %f ms self %f ms" (fun star name d self -> (name, (star, d, self)))
        with
        | row -> Some row
        | exception _ -> None)
      (String.split_on_char '\n' rendered)
  in
  let row name =
    match List.assoc_opt name rows with
    | Some r -> r
    | None -> Alcotest.failf "no rendered line for %s in:\n%s" name rendered
  in
  List.iter
    (fun name ->
      let _, d, self = row name in
      Alcotest.(check bool) (name ^ ": self <= duration") true (self <= d +. 1e-3))
    [ "root"; "fast"; "slow"; "leaf" ];
  let _, d, self = row "root" in
  Alcotest.(check bool) "root self excludes children" true (self < d);
  Alcotest.(check (list string)) "critical path descends the longest child"
    [ "root"; "slow"; "leaf" ]
    (List.filter (fun name -> let star, _, _ = row name in star = '*') [ "root"; "fast"; "slow"; "leaf" ])

let test_chrome_lanes_from_trace_ids () =
  let ctx = Trace.make ~sampled:true () in
  let (), span = Trace.collect ctx "root" (fun () -> ()) in
  let s = match span with Some s -> s | None -> Alcotest.fail "no span tree" in
  let pid_of text =
    match parse_json text with
    | Arr (Obj fields :: _) -> (
      match List.assoc_opt "pid" fields with
      | Some (Num pid) -> int_of_float pid
      | _ -> Alcotest.fail "event lacks a pid")
    | _ -> Alcotest.fail "trace is not a JSON array of objects"
  in
  Alcotest.(check int) "no trace id keeps the historical pid 1" 1
    (pid_of (Span.to_chrome_json s));
  let a = pid_of (Span.to_chrome_json ~trace_id:(String.make 32 'a') s) in
  let b = pid_of (Span.to_chrome_json ~trace_id:(String.make 32 'b') s) in
  Alcotest.(check bool) "distinct trace ids land in distinct lanes" false (a = b);
  Alcotest.(check bool) "lanes are positive" true (a > 0 && b > 0)

let test_tracestore_admission () =
  Tracestore.clear ();
  (* Use a dedicated op class so engine-driven suites cannot have
     warmed its window: an empty window has no p99, so nothing is
     slow and the head/error rules are observable alone. *)
  let op = "tstore-admission" in
  let w = Window.get op in
  let offer ?(error = false) ?(tid = Trace.make ()) () =
    Tracestore.record ~trace_id:tid.Trace.trace_id ~span_id:tid.Trace.span_id ~op
      ~query:"q" ~duration_ms:1.0 ~error ~slow:(Window.slow w 1.0) ()
  in
  Alcotest.(check bool) "identity-free requests never stored" false
    (Tracestore.record ~trace_id:"" ~span_id:"" ~op ~query:"q" ~duration_ms:1.0
       ~error:false ~slow:true ());
  Alcotest.(check bool) "first arrival head-sampled" true (offer ());
  for i = 2 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "arrival %d dropped" i)
      false (offer ())
  done;
  Alcotest.(check bool) "arrival 11 head-sampled" true (offer ());
  Alcotest.(check bool) "errors always kept" true (offer ~error:true ());
  Alcotest.(check int) "12 offers seen" 12 (Testkit.traces_seen ());
  let stored = Testkit.stored_traces () in
  Alcotest.(check int) "3 admitted" 3 (List.length stored);
  let kept_reasons = List.map (fun s -> s.Tracestore.skept) stored in
  Alcotest.(check bool) "error reason recorded" true (List.mem "error" kept_reasons);
  Alcotest.(check bool) "sampled reason recorded" true (List.mem "sampled" kept_reasons);
  (* Slow-path admission: warm the op window past the p99 minimum, then
     offer something slower than everything seen so far. *)
  for _ = 1 to 30 do
    Timeseries.observe w 1.0
  done;
  let slow_ctx = Trace.make () in
  Alcotest.(check bool) "p99-exceeding request tail-admitted" true
    (Tracestore.record ~trace_id:slow_ctx.Trace.trace_id ~span_id:slow_ctx.Trace.span_id
       ~op ~query:"q" ~duration_ms:500.0 ~error:false ~slow:(Window.slow w 500.0) ());
  (match Testkit.find_trace slow_ctx.Trace.trace_id with
  | Some s -> Alcotest.(check string) "kept as slow" "slow" s.Tracestore.skept
  | None -> Alcotest.fail "slow trace not stored");
  Window.reset w;
  Tracestore.clear ()

(* The admission memo: [Window.recent_p99] with the clock pinned. *)
let test_memo_reset_drops_verdict () =
  let w = Window.get "t.memo.reset" in
  let now = 7000.0 in
  for _ = 1 to 30 do
    Timeseries.observe w ~now 1.0
  done;
  let count, _ = Window.recent_p99 ~now w in
  Alcotest.(check int) "memo taken over 30 requests" 30 count;
  Window.reset w;
  let count, p99 = Window.recent_p99 ~now w in
  Alcotest.(check int) "reset drops the memo within the same second" 0 count;
  Alcotest.(check bool) "empty again: no p99" true (Float.is_nan p99);
  (* Through the trace store: a slow verdict does not outlive a reset. *)
  Tracestore.clear ();
  let op = "tstore-memo-reset" in
  let w = Window.get op in
  for _ = 1 to 30 do
    Timeseries.observe w 1.0
  done;
  let offer () =
    let ctx = Trace.make () in
    ignore
      (Tracestore.record ~trace_id:ctx.Trace.trace_id ~span_id:ctx.Trace.span_id ~op
         ~query:"q" ~duration_ms:500.0 ~error:false ~slow:(Window.slow w 500.0) ()
        : bool);
    Option.map (fun s -> s.Tracestore.skept) (Testkit.find_trace ctx.Trace.trace_id)
  in
  Alcotest.(check (option string)) "slow before the reset" (Some "slow") (offer ());
  Window.reset w;
  Alcotest.(check bool) "not slow after the reset" true (offer () <> Some "slow");
  Window.reset w;
  Tracestore.clear ()

let test_memo_refreshes_when_count_doubles () =
  let w = Window.get "t.memo.double" in
  let now = 8000.5 in
  let count, p99 = Window.recent_p99 ~now w in
  Alcotest.(check int) "empty window" 0 count;
  Alcotest.(check bool) "empty window has no p99" true (Float.is_nan p99);
  (* Grow past the admission minimum (20) within the same second. *)
  for _ = 1 to 30 do
    Timeseries.observe w ~now 2.0
  done;
  let count, p99 = Window.recent_p99 ~now w in
  Alcotest.(check int) "grown from empty: fresh count" 30 count;
  Alcotest.(check bool) "grown from empty: a p99" false (Float.is_nan p99);
  for _ = 1 to 29 do
    Timeseries.observe w ~now 2.0
  done;
  Alcotest.(check int) "59 < 2 x 30: memo kept within the second" 30
    (fst (Window.recent_p99 ~now w));
  Timeseries.observe w ~now 2.0;
  Alcotest.(check int) "60 = 2 x 30: refreshed" 60 (fst (Window.recent_p99 ~now w));
  Timeseries.observe w ~now 2.0;
  Alcotest.(check int) "kept again" 60 (fst (Window.recent_p99 ~now w));
  Alcotest.(check int) "next second: refreshed" 61
    (fst (Window.recent_p99 ~now:(now +. 1.0) w))

let test_memo_equals_summary_after_refresh () =
  let w = Window.get "t.memo.summary" in
  let t0 = 9000.0 in
  for i = 1 to 100 do
    Timeseries.observe w ~now:(t0 +. float_of_int (i mod 7)) (float_of_int i)
  done;
  List.iter
    (fun now ->
      let count, p99 = Window.recent_p99 ~now w in
      let s = Window.summary ~now w in
      Alcotest.(check int) (Printf.sprintf "count at %.0f" now) s.Window.count count;
      Alcotest.(check (float 0.0)) (Printf.sprintf "p99 at %.0f" now) s.Window.p99 p99)
    [ t0 +. 6.0; t0 +. 30.0; t0 +. 62.0 ]

let test_tracestore_find_and_roundtrip () =
  Tracestore.clear ();
  let ctx = Trace.make ~sampled:true () in
  let (), root = Trace.collect ctx "root" (fun () -> ()) in
  Alcotest.(check bool) "admitted" true
    (Tracestore.record ~trace_id:ctx.Trace.trace_id ~span_id:ctx.Trace.span_id ~op:"query"
       ~query:"fp" ~duration_ms:2.5 ~error:false ~slow:false ?root ());
  Alcotest.(check bool) "unknown id not found" true (Testkit.find_trace "ffffffff" = None);
  (* /traces.json roundtrip, span tree included. *)
  (match Tracestore.to_json () |> Json.member "traces" with
  | Some (Json.Arr [ json ]) -> (
    let s = Option.get (Testkit.find_trace ctx.Trace.trace_id) in
    match Tracestore.stored_of_json json with
    | Some s' ->
      Alcotest.(check string) "trace id roundtrips" s.Tracestore.strace_id
        s'.Tracestore.strace_id;
      Alcotest.(check string) "kept reason roundtrips" s.Tracestore.skept
        s'.Tracestore.skept;
      Alcotest.(check bool) "span tree roundtrips" true (s'.Tracestore.sroot <> None);
      (* The explorer rendering shows the id and the span tree. *)
      let rendered = Format.asprintf "%a" Tracestore.pp_stored s' in
      Alcotest.(check bool) "rendering names the trace" true
        (let id = s.Tracestore.strace_id in
         let rec has i =
           i + String.length id <= String.length rendered
           && (String.sub rendered i (String.length id) = id || has (i + 1))
         in
         has 0)
    | None -> Alcotest.fail "stored_of_json rejected its own stored_json")
  | _ -> Alcotest.fail "expected one stored trace");
  Tracestore.clear ()

let test_window_exemplars () =
  let w = Window.get "exemplar-test" in
  Timeseries.observe w 1.0;
  Alcotest.(check int) "untraced observations leave no exemplar" 0
    (List.length (exemplars w));
  Timeseries.observe w ~trace:"cafe0123cafe0123cafe0123cafe0123" 1.0;
  Timeseries.observe w ~trace:"beef4567beef4567beef4567beef4567" 100.0;
  let exs = exemplars w in
  Alcotest.(check int) "one exemplar per touched bucket" 2 (List.length exs);
  let ids = List.map (fun e -> e.Window.ex_trace_id) exs in
  Alcotest.(check bool) "both trace ids advertised" true
    (List.mem "cafe0123cafe0123cafe0123cafe0123" ids
    && List.mem "beef4567beef4567beef4567beef4567" ids);
  List.iter
    (fun e ->
      Alcotest.(check bool) "bucket bound covers the observation" true
        (e.Window.ex_value_ms <= e.Window.ex_le))
    exs;
  (* A later traced observation in the same bucket replaces the
     exemplar; reset drops them all. *)
  Timeseries.observe w ~trace:"feed8901feed8901feed8901feed8901" 1.0;
  let ids = List.map (fun e -> e.Window.ex_trace_id) (exemplars w) in
  Alcotest.(check bool) "same-bucket exemplar replaced" true
    (List.mem "feed8901feed8901feed8901feed8901" ids
    && not (List.mem "cafe0123cafe0123cafe0123cafe0123" ids));
  (* The window document carries them. *)
  (match Window.to_json w with
  | Json.Obj fields -> (
    match List.assoc_opt "exemplars" fields with
    | Some (Json.Arr exs) -> Alcotest.(check int) "exemplars in to_json" 2 (List.length exs)
    | _ -> Alcotest.fail "to_json lacks an exemplars array")
  | _ -> Alcotest.fail "to_json is not an object");
  Window.reset w;
  Alcotest.(check int) "reset clears exemplars" 0 (List.length (exemplars w))

let test_prometheus_exemplar_lines () =
  let w = Window.get "promex" in
  Timeseries.observe w ~trace:"0123456789abcdef0123456789abcdef" 3.0;
  let text = Prometheus.render () in
  let has_line needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "OpenMetrics-style exemplar annotation present" true
    (has_line "# EXEMPLAR expfinder_latency_ms{op=\"promex\"");
  Alcotest.(check bool) "exemplar names the trace id" true
    (has_line "trace_id=\"0123456789abcdef0123456789abcdef\"");
  Window.reset w

let test_qlog_schema_versions () =
  (* A v1 line (no trace_id member) parses with an empty trace id; a v2
     line carries its id; versions outside the supported band are
     rejected. *)
  let parse line =
    match Json.of_string line with
    | Ok j -> parse_event j
    | Error e -> Alcotest.fail ("test line is not JSON: " ^ e)
  in
  (match
     parse
       {|{"v":1,"seq":3,"kind":"query","query":"fp","strategy":"direct","duration_ms":0.5,"digest":"d"}|}
   with
  | Ok e ->
    Alcotest.(check string) "v1 trace id defaults empty" "" e.Qlog.trace_id;
    Alcotest.(check int) "v1 seq kept" 3 e.Qlog.seq
  | Error e -> Alcotest.fail ("v1 line rejected: " ^ e));
  (match
     parse
       {|{"v":2,"seq":4,"kind":"query","query":"fp","trace_id":"0123456789abcdef0123456789abcdef"}|}
   with
  | Ok e ->
    Alcotest.(check string) "v2 trace id parsed" "0123456789abcdef0123456789abcdef"
      e.Qlog.trace_id
  | Error e -> Alcotest.fail ("v2 line rejected: " ^ e));
  (match parse {|{"v":3,"seq":5,"kind":"query","query":"fp"}|} with
  | Ok _ -> Alcotest.fail "future schema version accepted"
  | Error _ -> ());
  match parse {|{"v":0,"seq":6,"kind":"query","query":"fp"}|} with
  | Ok _ -> Alcotest.fail "prehistoric schema version accepted"
  | Error _ -> ()

let test_engine_trace_threading () =
  (* The explicit context surfaces in every observability artifact the
     engine writes: the profile, the recorder event and the trace
     store (first arrival after a clear is always head-sampled). *)
  Tracestore.clear ();
  Recorder.clear ();
  with_telemetry true (fun () ->
      let engine = Engine.create (Collab.graph ()) in
      let ctx = Trace.make ~sampled:true () in
      let answer = Engine.evaluate ~trace:ctx engine (Collab.q1 ()) in
      (match answer.Engine.profile with
      | Some p ->
        Alcotest.(check string) "profile carries the trace id" ctx.Trace.trace_id
          p.Engine.trace_id
      | None -> Alcotest.fail "no profile");
      let recorded =
        List.exists (fun e -> e.Qlog.trace_id = ctx.Trace.trace_id) (Recorder.recent ())
      in
      Alcotest.(check bool) "recorder event carries the trace id" true recorded;
      match Testkit.find_trace ctx.Trace.trace_id with
      | Some s ->
        Alcotest.(check string) "stored under op query" "query" s.Tracestore.sop;
        Alcotest.(check bool) "span tree stored" true (s.Tracestore.sroot <> None)
      | None -> Alcotest.fail "trace not stored");
  (* Every sink sees the same requests: one traced query, one batch and
     one update batch each reach the recorder, the query log, their op
     window and the trace store, under their own trace ids. *)
  let path = Filename.temp_file "expfinder-sinks" ".jsonl" in
  let window_requests () =
    List.fold_left (fun acc (_, w) -> acc + fst (Window.totals w)) 0 (Window.all ())
  in
  let request_lines () =
    Qlog.close ();
    match Qlog.load path with
    | Ok events -> List.filter (fun e -> e.Qlog.kind <> Qlog.Alert) events
    | Error e -> Alcotest.fail e
  in
  with_qlog_sink path (fun () ->
      let engine = Engine.create (Collab.graph ()) in
      let recorded = List.length (Recorder.recent ()) in
      let logged = List.length (request_lines ()) in
      let observed = window_requests () in
      let seen = Testkit.traces_seen () in
      let ctxs = List.init 3 (fun _ -> Trace.make ~sampled:true ()) in
      let q, b, u = match ctxs with [ q; b; u ] -> (q, b, u) | _ -> assert false in
      ignore (Engine.evaluate ~trace:q engine (Collab.q1 ()) : Engine.answer);
      ignore
        (Engine.evaluate_batch ~trace:b engine [ Collab.q1 (); Collab.query () ]
          : Engine.answer list);
      ignore
        (Engine.apply_updates ~trace:u engine
           [ Expfinder_incremental.Update.Insert_edge (fst Collab.e1, snd Collab.e1) ]
          : Expfinder_incremental.Incremental.report list);
      let lines = request_lines () in
      Alcotest.(check int) "recorder grew by 3" (recorded + 3) (List.length (Recorder.recent ()));
      Alcotest.(check int) "query log grew by 3" (logged + 3) (List.length lines);
      Alcotest.(check int) "windows grew by 3" (observed + 3) (window_requests ());
      Alcotest.(check int) "trace store saw 3 more" (seen + 3) (Testkit.traces_seen ());
      List.iter
        (fun (ctx : Trace.ctx) ->
          Alcotest.(check bool) "trace id in the recorder" true
            (List.exists (fun e -> e.Qlog.trace_id = ctx.trace_id) (Recorder.recent ()));
          Alcotest.(check bool) "trace id in the query log" true
            (List.exists (fun e -> e.Qlog.trace_id = ctx.trace_id) lines))
        ctxs);
  Tracestore.clear ();
  Recorder.clear ()

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "histogram edge cases" `Quick test_histogram_edge_cases;
          Alcotest.test_case "counter saturation" `Quick test_counter_saturation;
          Alcotest.test_case "registry snapshot delta" `Quick test_registry_snapshot_delta;
          Alcotest.test_case "delta across reset_all" `Quick test_delta_across_reset_all;
          QCheck_alcotest.to_alcotest prop_delta_matches_oracle;
          Alcotest.test_case "snapshot matches the registry" `Quick
            test_snapshot_matches_registry;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitter/parser roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "metrics registry as JSON" `Quick test_metrics_to_json;
        ] );
      ( "reports",
        [
          Alcotest.test_case "sample stats" `Quick test_report_stats;
          Alcotest.test_case "write/load roundtrip" `Quick test_report_write_load;
          Alcotest.test_case "other schema versions rejected" `Quick
            test_report_rejects_other_schema;
          Alcotest.test_case "regression diffing" `Quick test_report_diff;
          Alcotest.test_case "IQR-overlap noise rule" `Quick test_report_diff_iqr_noise_rule;
          Alcotest.test_case "zero-IQR runs" `Quick test_report_diff_zero_iqr;
          Alcotest.test_case "single-sample runs" `Quick test_report_diff_single_sample;
          Alcotest.test_case "records missing on one side" `Quick test_report_diff_missing_side;
        ] );
      ( "windows",
        [
          Alcotest.test_case "sliding expiry" `Quick test_window_sliding;
          Alcotest.test_case "bucket ranges match a histogram" `Quick
            test_window_ranges_match_histogram;
          Alcotest.test_case "percentiles and error rate" `Quick
            test_window_percentiles_and_errors;
          Alcotest.test_case "summary JSON roundtrip" `Quick test_window_summary_json_roundtrip;
          Alcotest.test_case "lifetime totals" `Quick test_window_totals;
          Alcotest.test_case "summary, points and SLO agree" `Quick test_signals_agree;
        ] );
      ( "qlog",
        [
          Alcotest.test_case "emit/load roundtrip" `Quick test_qlog_emit_load_roundtrip;
          Alcotest.test_case "other schema versions rejected" `Quick
            test_qlog_event_json_rejects_other_schema;
          Alcotest.test_case "size-based rotation" `Quick test_qlog_rotation;
          Alcotest.test_case "unwritable sink disables, not raises" `Quick
            test_qlog_unwritable_sink_disables;
          Alcotest.test_case "replay across a rotation boundary" `Quick
            test_qlog_replay_across_rotation;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "ring math and wrap-around expiry" `Quick
            test_timeseries_ring_math;
          Alcotest.test_case "max_points keeps the newest" `Quick test_timeseries_max_points;
          Alcotest.test_case "/timeseries.json document shape" `Quick
            test_timeseries_to_json_shape;
          Alcotest.test_case "capture load and report" `Quick
            test_timeseries_capture_load_report;
          Alcotest.test_case "capture rejects garbage lines" `Quick
            test_timeseries_load_rejects_garbage;
          Alcotest.test_case "render while a domain records" `Quick
            test_timeseries_concurrent_render;
        ] );
      ("gcpause", [ Alcotest.test_case "one set of books" `Quick test_gcpause_books ]);
      ( "slo",
        [
          Alcotest.test_case "availability fires and clears" `Quick test_slo_fire_and_clear;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "collision disambiguation and HELP/TYPE" `Quick
            test_prometheus_collision_and_metadata;
          Alcotest.test_case "alert gauges" `Quick test_prometheus_alert_gauges;
        ] );
      ( "postmortem",
        [
          Alcotest.test_case "write/load/pp roundtrip" `Quick test_postmortem_roundtrip;
          Alcotest.test_case "inert without a directory" `Quick
            test_postmortem_without_dir_is_inert;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_histogram_percentile_bound ] );
      ( "recorder",
        [
          Alcotest.test_case "ring buffer and slow flags" `Quick test_recorder_ring;
          Alcotest.test_case "one slow rule for recorder and trace store" `Quick
            test_request_slow_rule;
          Alcotest.test_case "captures engine queries" `Quick
            test_recorder_captures_engine_queries;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "stage tree on Fig. 1" `Quick test_profile_stage_tree;
          Alcotest.test_case "disabled produces no profile" `Quick test_disabled_no_profile;
          Alcotest.test_case "answers invariant under the flag" `Quick
            test_same_answers_when_disabled;
          Alcotest.test_case "sampled profile counters are the request's" `Quick
            test_sampled_profile_counters;
          Alcotest.test_case "folded reset drains the table" `Quick test_folded_reset_drains;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "chrome trace roundtrip" `Quick test_chrome_trace_roundtrip;
          Alcotest.test_case "context mint and wire forms" `Quick test_trace_mint_and_wire;
          Alcotest.test_case "ids distinct across domains" `Quick
            test_trace_ids_distinct_across_domains;
          Alcotest.test_case "malformed wire forms rejected" `Quick
            test_trace_of_wire_rejects_malformed;
          Alcotest.test_case "sampled context records without the flag" `Quick
            test_trace_collect_sampled;
          Alcotest.test_case "self time and critical path" `Quick
            test_span_self_time_and_critical_path;
          Alcotest.test_case "chrome lanes from trace ids" `Quick
            test_chrome_lanes_from_trace_ids;
          Alcotest.test_case "engine threads the context" `Quick test_engine_trace_threading;
        ] );
      ( "tracestore",
        [
          Alcotest.test_case "head/tail admission" `Quick test_tracestore_admission;
          Alcotest.test_case "reset drops the p99 memo" `Quick test_memo_reset_drops_verdict;
          Alcotest.test_case "p99 memo refreshes when the count doubles" `Quick
            test_memo_refreshes_when_count_doubles;
          Alcotest.test_case "p99 memo equals the summary" `Quick
            test_memo_equals_summary_after_refresh;
          Alcotest.test_case "prefix find and JSON roundtrip" `Quick
            test_tracestore_find_and_roundtrip;
        ] );
      ( "exemplars",
        [
          Alcotest.test_case "per-bucket trace ids" `Quick test_window_exemplars;
          Alcotest.test_case "prometheus EXEMPLAR lines" `Quick
            test_prometheus_exemplar_lines;
        ] );
      ( "qlog-schema",
        [ Alcotest.test_case "v1/v2 accepted, others rejected" `Quick test_qlog_schema_versions ] );
    ]
