(* Unit and property tests for predicates, pattern queries, pattern I/O
   and the random pattern generator. *)

open Expfinder_graph
open Expfinder_pattern

(* --- Predicate --------------------------------------------------------- *)

let attrs = Attrs.of_list [ Attrs.int "exp" 5; Attrs.str "role" "DBA"; Attrs.float "score" 1.5 ]

let test_predicate_eval () =
  let check name pred expected = Alcotest.(check bool) name expected (Predicate.eval pred attrs) in
  check "always" Predicate.always true;
  check "ge true" (Predicate.ge_int "exp" 5) true;
  check "ge false" (Predicate.ge_int "exp" 6) false;
  check "gt" (Predicate.gt_int "exp" 4) true;
  check "le" (Predicate.le_int "exp" 5) true;
  check "lt false" (Predicate.lt_int "exp" 5) false;
  check "eq str" (Predicate.eq_str "role" "DBA") true;
  check "ne" (Predicate.atom "role" Predicate.Ne (Attr.String "SA")) true;
  check "conj both" (Predicate.conj (Predicate.ge_int "exp" 3) (Predicate.eq_str "role" "DBA")) true;
  check "conj one fails" (Predicate.conj (Predicate.ge_int "exp" 9) (Predicate.eq_str "role" "DBA")) false;
  check "missing attr" (Predicate.ge_int "age" 1) false;
  check "type mismatch" (Predicate.eq_str "exp" "5") false;
  check "float compare" (Predicate.atom "score" Predicate.Gt (Attr.Float 1.0)) true

let test_predicate_ops_roundtrip () =
  List.iter
    (fun op ->
      match Predicate.op_of_string (Predicate.op_to_string op) with
      | Some op' -> Alcotest.(check bool) "op roundtrip" true (op = op')
      | None -> Alcotest.fail "op roundtrip failed")
    [ Predicate.Eq; Ne; Lt; Le; Gt; Ge ];
  Alcotest.(check bool) "unknown op" true (Predicate.op_of_string "~=" = None)

let test_predicate_edge_cases () =
  let check name pred expected = Alcotest.(check bool) name expected (Predicate.eval pred attrs) in
  (* A comparison over a missing attribute never holds — not even Ne,
     which still requires a comparable stored value. *)
  check "ne on missing attr" (Predicate.atom "age" Predicate.Ne (Attr.Int 3)) false;
  check "ne on mistyped attr" (Predicate.atom "exp" Predicate.Ne (Attr.String "DBA")) false;
  check "lt on missing attr" (Predicate.lt_int "age" 100) false;
  (* Int and Float never compare, in either direction. *)
  check "int attr vs float atom" (Predicate.atom "exp" Predicate.Eq (Attr.Float 5.0)) false;
  check "float attr vs int atom" (Predicate.atom "score" Predicate.Gt (Attr.Int 1)) false;
  (* Contradictory conjunctions evaluate to false, matching what Qlint
     proves statically. *)
  let contradictions =
    [
      Predicate.conj (Predicate.ge_int "exp" 5) (Predicate.lt_int "exp" 3);
      Predicate.conj (Predicate.eq_str "role" "DBA") (Predicate.eq_str "role" "SA");
      Predicate.conj (Predicate.eq_int "exp" 5) (Predicate.atom "exp" Predicate.Ne (Attr.Int 5));
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) "contradiction never matches" false (Predicate.eval p attrs);
      Alcotest.(check bool) "and Qlint flags it" true (Pattern_analysis.pred_unsat p <> None))
    contradictions

(* --- Pattern validation ------------------------------------------------- *)

let sa = Label.of_string "SA"
let sd = Label.of_string "SD"

let spec name label pred = { Pattern.name; label = Some label; pred }

let two_nodes = [| spec "SA" sa Predicate.always; spec "SD" sd Predicate.always |]

let test_pattern_validation () =
  let expect_error msg nodes edges output =
    match Pattern.make ~nodes ~edges ~output with
    | Ok _ -> Alcotest.fail ("accepted: " ^ msg)
    | Error _ -> ()
  in
  expect_error "empty" [||] [] 0;
  expect_error "output range" two_nodes [] 2;
  expect_error "edge range" two_nodes [ (0, 5, Pattern.Bounded 1) ] 0;
  expect_error "self loop" two_nodes [ (1, 1, Pattern.Bounded 1) ] 0;
  expect_error "zero bound" two_nodes [ (0, 1, Pattern.Bounded 0) ] 0;
  expect_error "duplicate edge" two_nodes
    [ (0, 1, Pattern.Bounded 1); (0, 1, Pattern.Bounded 2) ]
    0;
  match Pattern.make ~nodes:two_nodes ~edges:[ (0, 1, Pattern.Bounded 2) ] ~output:0 with
  | Ok p ->
    Alcotest.(check int) "size" 2 (Pattern.size p);
    Alcotest.(check int) "edges" 1 (Pattern.edge_count p)
  | Error e -> Alcotest.fail e

let test_pattern_accessors () =
  let p =
    Pattern.make_exn ~nodes:two_nodes
      ~edges:[ (0, 1, Pattern.Bounded 2); (1, 0, Pattern.Unbounded) ]
      ~output:1
  in
  Alcotest.(check int) "output" 1 (Pattern.output p);
  Alcotest.(check string) "name" "SD" (Pattern.name p 1);
  Alcotest.(check bool) "bound_of" true (Pattern.bound_of p 0 1 = Some (Pattern.Bounded 2));
  Alcotest.(check bool) "bound_of none" true (Pattern.bound_of p 0 0 = None);
  Alcotest.(check bool) "max bound" true (Pattern.max_bound p = Some 2);
  Alcotest.(check bool) "has unbounded" true (Pattern.has_unbounded_edge p);
  Alcotest.(check bool) "not simulation" false (Pattern.is_simulation_pattern p);
  let s = Pattern.to_simulation p in
  Alcotest.(check bool) "to_simulation" true (Pattern.is_simulation_pattern s);
  Alcotest.(check bool) "pnode_of_name" true (Pattern.pnode_of_name p "SA" = Some 0);
  Alcotest.(check bool) "pnode_of_name missing" true (Pattern.pnode_of_name p "XX" = None)

let test_matches_node () =
  let p =
    Pattern.make_exn
      ~nodes:[| spec "SA" sa (Predicate.ge_int "exp" 5) |]
      ~edges:[] ~output:0
  in
  let good = Attrs.of_list [ Attrs.int "exp" 7 ] in
  let bad = Attrs.of_list [ Attrs.int "exp" 3 ] in
  Alcotest.(check bool) "label+pred" true (Pattern.matches_node p 0 sa good);
  Alcotest.(check bool) "wrong label" false (Pattern.matches_node p 0 sd good);
  Alcotest.(check bool) "pred fails" false (Pattern.matches_node p 0 sa bad);
  let wild =
    Pattern.make_exn ~nodes:[| { Pattern.name = "any"; label = None; pred = Predicate.always } |]
      ~edges:[] ~output:0
  in
  Alcotest.(check bool) "wildcard" true (Pattern.matches_node wild 0 sd bad)

let test_fingerprint () =
  let p1 = Pattern.make_exn ~nodes:two_nodes ~edges:[ (0, 1, Pattern.Bounded 2) ] ~output:0 in
  let p2 = Pattern.make_exn ~nodes:two_nodes ~edges:[ (0, 1, Pattern.Bounded 2) ] ~output:0 in
  let p3 = Pattern.make_exn ~nodes:two_nodes ~edges:[ (0, 1, Pattern.Bounded 3) ] ~output:0 in
  Alcotest.(check string) "equal patterns same fp" (Pattern.fingerprint p1) (Pattern.fingerprint p2);
  Alcotest.(check bool) "different bound different fp" true
    (Pattern.fingerprint p1 <> Pattern.fingerprint p3);
  Alcotest.(check bool) "equal" true (Pattern.equal p1 p2);
  Alcotest.(check bool) "not equal" false (Pattern.equal p1 p3)

(* The fingerprint is computed once, when the pattern is built; it must
   still be the one earlier builds wrote into query logs: every query
   event of the v1 fixture records the fingerprint of its payload. *)
let test_fingerprint_matches_fixture () =
  let open Expfinder_telemetry in
  let fixture =
    if Sys.file_exists "fixtures/qlog_v1.jsonl" then "fixtures/qlog_v1.jsonl"
    else Filename.concat (Filename.dirname Sys.executable_name) "fixtures/qlog_v1.jsonl"
  in
  let events = match Qlog.load fixture with Ok e -> e | Error e -> Alcotest.fail e in
  let checked =
    List.fold_left
      (fun n (e : Qlog.event) ->
        match (e.Qlog.kind, e.Qlog.payload) with
        | Qlog.Query, Some (Json.Str text) -> (
          match Pattern_io.of_string text with
          | Ok p ->
            Alcotest.(check string) "recorded fingerprint" e.Qlog.query (Pattern.fingerprint p);
            n + 1
          | Error err -> Alcotest.fail err)
        | _ -> n)
      0 events
  in
  Alcotest.(check bool) "fixture holds query events" true (checked > 0)

(* --- Pattern I/O -------------------------------------------------------- *)

let paper_query_text =
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

let test_io_parse_paper_query () =
  match Pattern_io.of_string paper_query_text with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let q = Expfinder_workload.Collab.query () in
    Alcotest.(check bool) "equals Collab.query" true (Pattern.equal p q)

let test_io_roundtrip () =
  let q = Expfinder_workload.Collab.query () in
  match Pattern_io.of_string (Pattern_io.to_string q) with
  | Ok q' -> Alcotest.(check bool) "roundtrip" true (Pattern.equal q q')
  | Error e -> Alcotest.fail e

let test_io_unbounded_and_wildcard () =
  let p =
    Pattern.make_exn
      ~nodes:[| { Pattern.name = "any"; label = None; pred = Predicate.always }; spec "SD" sd Predicate.always |]
      ~edges:[ (0, 1, Pattern.Unbounded) ]
      ~output:0
  in
  match Pattern_io.of_string (Pattern_io.to_string p) with
  | Ok p' -> Alcotest.(check bool) "roundtrip */unbounded" true (Pattern.equal p p')
  | Error e -> Alcotest.fail e

let test_io_errors () =
  let bad input =
    match Pattern_io.of_string input with Ok _ -> Alcotest.fail "accepted" | Error _ -> ()
  in
  bad "";
  bad "nonsense";
  bad "expfinder-pattern 1\nnode 0 SA SA\n";
  (* missing output *)
  bad "expfinder-pattern 1\nnode 0 SA SA\nedge 0 0 1\noutput 0";
  (* self loop *)
  bad "expfinder-pattern 1\nnode 0 SA SA\noutput 3";
  (* output out of range *)
  bad "expfinder-pattern 1\nnode 0 SA SA exp>>int:1\noutput 0"

let prop_io_roundtrip seed =
  let rng = Prng.create seed in
  let labels = Array.map Label.of_string [| "A"; "B"; "C" |] in
  let config =
    {
      Pattern_gen.default with
      nodes = 1 + Prng.int rng 5;
      extra_edges = Prng.int rng 4;
      max_bound = 4;
      unbounded_prob = 0.2;
    }
  in
  let p = Pattern_gen.generate rng config ~labels in
  match Pattern_io.of_string (Pattern_io.to_string p) with
  | Ok p' -> Pattern.equal p p'
  | Error _ -> false

(* Qlint-flagged patterns must serialize like any other: inject a
   contradictory conjunction (and extra Ne/Lt/Eq atoms, covering every
   operator's syntax) into a generated pattern and round-trip it. *)
let prop_io_roundtrip_flagged seed =
  let rng = Prng.create seed in
  let labels = Array.map Label.of_string [| "A"; "B"; "C" |] in
  let config =
    { Pattern_gen.default with nodes = 1 + Prng.int rng 4; extra_edges = Prng.int rng 3 }
  in
  let p = Pattern_gen.generate rng config ~labels in
  let victim = Prng.int rng (Pattern.size p) in
  let contradiction =
    match Prng.int rng 3 with
    | 0 -> Predicate.conj (Predicate.ge_int "exp" 5) (Predicate.lt_int "exp" 3)
    | 1 -> Predicate.conj (Predicate.eq_str "specialty" "DBA") (Predicate.eq_str "specialty" "SA")
    | _ ->
      Predicate.conj (Predicate.eq_int "exp" 4) (Predicate.atom "exp" Predicate.Ne (Attr.Int 4))
  in
  let nodes =
    Array.init (Pattern.size p) (fun u ->
        let s = Pattern.node_spec p u in
        if u = victim then { s with Pattern.pred = Predicate.conj s.Pattern.pred contradiction }
        else s)
  in
  let flagged = Pattern.make_exn ~nodes ~edges:(Pattern.edges p) ~output:(Pattern.output p) in
  Pattern_analysis.statically_empty flagged
  &&
  match Pattern_io.of_string (Pattern_io.to_string flagged) with
  | Error _ -> false
  | Ok p' -> Pattern.equal flagged p' && Pattern_analysis.statically_empty p'

let test_dot () =
  let dot = Pattern_io.to_dot (Expfinder_workload.Collab.query ()) in
  Alcotest.(check bool) "nonempty" true (String.length dot > 40)

(* --- Pattern generator --------------------------------------------------- *)

let prop_generated_patterns_valid seed =
  let rng = Prng.create seed in
  let labels = Array.map Label.of_string [| "A"; "B" |] in
  let config =
    { Pattern_gen.default with nodes = 1 + Prng.int rng 6; extra_edges = Prng.int rng 5 }
  in
  let p = Pattern_gen.generate rng config ~labels in
  (* Output reaches every node: follow edges from node 0. *)
  let n = Pattern.size p in
  let seen = Array.make n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter (fun (v, _) -> dfs v) (Pattern.out_edges p u)
    end
  in
  dfs (Pattern.output p);
  Array.for_all Fun.id seen && Pattern.output p = 0

let prop_simulation_config_bounds seed =
  let rng = Prng.create seed in
  let labels = Array.map Label.of_string [| "A"; "B" |] in
  let config = Pattern_gen.simulation_config { Pattern_gen.default with unbounded_prob = 0.5 } in
  Pattern.is_simulation_pattern (Pattern_gen.generate rng config ~labels)

let qcheck_cases =
  [
    QCheck.Test.make ~count:100 ~name:"pattern io roundtrip" QCheck.small_int (fun s ->
        prop_io_roundtrip (s + 1));
    QCheck.Test.make ~count:100 ~name:"flagged pattern io roundtrip" QCheck.small_int (fun s ->
        prop_io_roundtrip_flagged (s + 1));
    QCheck.Test.make ~count:100 ~name:"generated patterns connected" QCheck.small_int
      (fun s -> prop_generated_patterns_valid (s + 1));
    QCheck.Test.make ~count:50 ~name:"simulation config forces bound 1" QCheck.small_int
      (fun s -> prop_simulation_config_bounds (s + 1));
  ]

let () =
  Alcotest.run "pattern"
    [
      ( "predicate",
        [
          Alcotest.test_case "eval" `Quick test_predicate_eval;
          Alcotest.test_case "ops roundtrip" `Quick test_predicate_ops_roundtrip;
          Alcotest.test_case "edge cases" `Quick test_predicate_edge_cases;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "validation" `Quick test_pattern_validation;
          Alcotest.test_case "accessors" `Quick test_pattern_accessors;
          Alcotest.test_case "matches_node" `Quick test_matches_node;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "fingerprint = qlog fixture" `Quick test_fingerprint_matches_fixture;
        ] );
      ( "io",
        [
          Alcotest.test_case "parse paper query" `Quick test_io_parse_paper_query;
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "wildcard/unbounded" `Quick test_io_unbounded_and_wildcard;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "dot" `Quick test_dot;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
