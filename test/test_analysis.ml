(* Qlint static analysis and the Verify self-checker: predicate
   satisfiability/implication, structural lints, query containment
   (with a randomized soundness property), the planner's static-empty
   fast path, and lint-cleanliness of every shipped example query. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_engine
open Expfinder_telemetry
module Collab = Expfinder_workload.Collab
module PA = Pattern_analysis

(* Qlint proves a predicate unsatisfiable exactly when a one-node
   pattern carrying it is statically empty. *)
let unsat pred =
  PA.statically_empty
    (Pattern.make_exn ~nodes:[| { Pattern.name = "N"; label = None; pred } |] ~edges:[] ~output:0)

let same_pred a b = Predicate.atoms a = Predicate.atoms b

let with_telemetry on f =
  set_enabled on;
  Fun.protect ~finally:(fun () -> set_enabled false) f

let spec ?label ?(pred = Predicate.always) name =
  { Pattern.name; label = Option.map Label.of_string label; pred }

let ne_int attr c = Testkit.atom attr Predicate.Ne (Attr.Int c)

let conj_all = List.fold_left Predicate.conj Predicate.always

(* --- predicate satisfiability ------------------------------------------- *)

let test_unsat_interval () =
  let p = Predicate.conj (Predicate.ge_int "exp" 5) (Testkit.lt_int "exp" 3) in
  Alcotest.(check bool) "exp>=5 && exp<3 unsat" true (unsat p);
  let q = Predicate.conj (Predicate.ge_int "exp" 3) (Testkit.le_int "exp" 3) in
  Alcotest.(check bool) "exp>=3 && exp<=3 sat" true (not (unsat q));
  let saturated = Testkit.atom "exp" Predicate.Gt (Attr.Int max_int) in
  Alcotest.(check bool) "exp > max_int unsat" true (unsat saturated)

let test_unsat_string_conflict () =
  let p = Predicate.conj (Predicate.eq_str "specialty" "DBA") (Predicate.eq_str "specialty" "SA") in
  Alcotest.(check bool) "two string equalities unsat" true (unsat p);
  let q =
    Predicate.conj (Predicate.eq_str "specialty" "DBA")
      (Testkit.atom "specialty" Predicate.Ne (Attr.String "DBA"))
  in
  Alcotest.(check bool) "eq and ne of same value unsat" true (unsat q);
  let r =
    Predicate.conj (Predicate.eq_str "specialty" "DBA")
      (Testkit.atom "specialty" Predicate.Ne (Attr.String "SA"))
  in
  Alcotest.(check bool) "eq DBA, ne SA sat" true (not (unsat r))

let test_unsat_ne_exhaustion () =
  (* exp in [0,1] with both points excluded. *)
  let p =
    conj_all
      [ Predicate.ge_int "exp" 0; Testkit.le_int "exp" 1; ne_int "exp" 0; ne_int "exp" 1 ]
  in
  Alcotest.(check bool) "interval exhausted by Ne" true (unsat p);
  let q = conj_all [ Predicate.ge_int "exp" 0; Testkit.le_int "exp" 1; ne_int "exp" 0 ] in
  Alcotest.(check bool) "one point left" true (not (unsat q))

let test_unsat_mixed_types () =
  let p = Predicate.conj (Testkit.eq_int "x" 3) (Predicate.eq_str "x" "three") in
  if not (unsat p) then Alcotest.fail "mixed-type atoms must be unsatisfiable"

(* --- implication and simplification ------------------------------------- *)

let test_implies () =
  let ge k = Predicate.ge_int "exp" k in
  Alcotest.(check bool) "exp>=5 => exp>=3" true (PA.implies (ge 5) (ge 3));
  Alcotest.(check bool) "exp>=3 =/=> exp>=5" false (PA.implies (ge 3) (ge 5));
  Alcotest.(check bool) "anything => true" true (PA.implies (ge 3) Predicate.always);
  Alcotest.(check bool) "eq pin evaluates" true
    (PA.implies (Testkit.eq_int "exp" 5) (Testkit.gt_int "exp" 2));
  Alcotest.(check bool) "string pin implies ne" true
    (PA.implies (Predicate.eq_str "s" "DBA") (Testkit.atom "s" Predicate.Ne (Attr.String "SA")));
  (* Unsat implies everything. *)
  let bot = Predicate.conj (ge 5) (Testkit.lt_int "exp" 3) in
  Alcotest.(check bool) "unsat => anything" true (PA.implies bot (Predicate.eq_str "s" "x"));
  (* No cross-attribute reasoning: false means "not provably". *)
  Alcotest.(check bool) "different attribute not implied" false
    (PA.implies (ge 5) (Predicate.ge_int "other" 0))

let test_simplify () =
  let p = Predicate.conj (Predicate.ge_int "exp" 3) (Predicate.ge_int "exp" 5) in
  let s = PA.simplify p in
  Alcotest.(check int) "one atom survives" 1 (List.length (Predicate.atoms s));
  Alcotest.(check bool) "the tighter one" true (same_pred s (Predicate.ge_int "exp" 5));
  let q = Predicate.conj (Predicate.ge_int "exp" 5) (Predicate.eq_str "s" "DBA") in
  Alcotest.(check bool) "irredundant unchanged" true (same_pred (PA.simplify q) q);
  let bot = Predicate.conj (Predicate.ge_int "exp" 5) (Testkit.lt_int "exp" 3) in
  Alcotest.(check bool) "unsat left as written" true (same_pred (PA.simplify bot) bot)

let test_subsumes () =
  let weak = spec "w" ~pred:(Predicate.ge_int "exp" 2) ~label:"SA" in
  let tight = spec "t" ~pred:(Predicate.ge_int "exp" 5) ~label:"SA" in
  let wildcard = spec "any" in
  Alcotest.(check bool) "weaker spec subsumes tighter" true (PA.subsumes weak tight);
  Alcotest.(check bool) "tighter does not subsume weaker" false (PA.subsumes tight weak);
  Alcotest.(check bool) "wildcard subsumes everything" true (PA.subsumes wildcard tight);
  Alcotest.(check bool) "labelled does not subsume wildcard" false (PA.subsumes tight wildcard);
  let other = spec "o" ~pred:(Predicate.ge_int "exp" 5) ~label:"SD" in
  Alcotest.(check bool) "different labels never subsume" false (PA.subsumes weak other)

(* --- structural lints ---------------------------------------------------- *)

let unsat_query () =
  Pattern.make_exn
    ~nodes:
      [|
        spec "SA" ~label:"SA"
          ~pred:(Predicate.conj (Predicate.ge_int "exp" 5) (Testkit.lt_int "exp" 3));
        spec "SD" ~label:"SD" ~pred:(Predicate.ge_int "exp" 2);
      |]
    ~edges:[ (0, 1, Pattern.Bounded 2) ]
    ~output:0

let find_code code diags = List.filter (fun d -> d.PA.code = code) diags

let test_analyze_unsat () =
  let q = unsat_query () in
  Alcotest.(check bool) "statically empty" true (PA.statically_empty q);
  let diags = PA.analyze q in
  (match find_code "unsat-predicate" diags with
  | [ d ] ->
    Alcotest.(check bool) "severity error" true (d.PA.severity = PA.Error);
    Alcotest.(check bool) "anchored at SA" true (d.PA.node = Some 0)
  | _ -> Alcotest.fail "expected exactly one unsat-predicate diagnostic");
  Alcotest.(check bool) "max severity error" true (List.exists (fun d -> d.PA.severity = PA.Error) diags)

let test_analyze_structure () =
  (* Two unconnected components, an unconstrained node, a redundant atom
     and a subsumed direct edge, all in one query. *)
  let q =
    Pattern.make_exn
      ~nodes:
        [|
          spec "SA" ~label:"SA"
            ~pred:(Predicate.conj (Predicate.ge_int "exp" 3) (Predicate.ge_int "exp" 5));
          spec "SD" ~label:"SD";
          spec "BA" ~label:"BA";
          spec "anyone";
          spec "ST" ~label:"ST";
        |]
      ~edges:
        [
          (0, 1, Pattern.Bounded 1);
          (1, 2, Pattern.Bounded 2);
          (0, 2, Pattern.Bounded 3);
          (3, 4, Pattern.Bounded 1);
        ]
      ~output:0
  in
  let diags = PA.analyze q in
  Alcotest.(check int) "disconnected" 1 (List.length (find_code "disconnected" diags));
  (match find_code "unconstrained-node" diags with
  | [ d ] -> Alcotest.(check bool) "anchored at the wildcard node" true (d.PA.node = Some 3)
  | _ -> Alcotest.fail "expected one unconstrained-node diagnostic");
  (match find_code "redundant-atom" diags with
  | [ d ] ->
    Alcotest.(check bool) "anchored at SA" true (d.PA.node = Some 0);
    Alcotest.(check bool) "fixup suggests the tight form" true
      (match d.PA.fixup with Some f -> f = "tighten to [exp>=5]" | None -> false)
  | _ -> Alcotest.fail "expected one redundant-atom diagnostic");
  (match find_code "subsumed-edge" diags with
  | [ d ] ->
    Alcotest.(check bool) "names the path node" true
      (match String.index_opt d.PA.message 'S' with Some _ -> true | None -> false);
    Alcotest.(check bool) "mentions SD" true
      (let msg = d.PA.message in
       let re = "through SD" in
       let n = String.length msg and m = String.length re in
       let rec scan i = i + m <= n && (String.sub msg i m = re || scan (i + 1)) in
       scan 0)
  | _ -> Alcotest.fail "expected one subsumed-edge diagnostic");
  (* Errors first, infos last. *)
  let ranks =
    List.map (fun d -> match d.PA.severity with PA.Error -> 0 | PA.Warning -> 1 | PA.Info -> 2) diags
  in
  Alcotest.(check bool) "sorted by severity" true (List.sort compare ranks = ranks)

let test_analyze_duplicates () =
  let q =
    Pattern.make_exn
      ~nodes:
        [|
          spec "SA" ~label:"A" ~pred:(Predicate.ge_int "exp" 2);
          spec "SD1" ~label:"B";
          spec "SD2" ~label:"B";
          spec "ST" ~label:"C";
        |]
      ~edges:
        [
          (0, 1, Pattern.Bounded 2);
          (0, 2, Pattern.Bounded 3);
          (1, 3, Pattern.Bounded 1);
          (2, 3, Pattern.Bounded 1);
        ]
      ~output:0
  in
  match find_code "duplicate-node" (PA.analyze q) with
  | [ d ] ->
    Alcotest.(check bool) "merged node is SD2" true (d.PA.node = Some 2);
    Alcotest.(check string) "named message"
      "node SD2 merged into SD1 by minimisation (same spec and edges)" d.PA.message
  | _ -> Alcotest.fail "expected one duplicate-node diagnostic"

let test_clean_query_has_no_diagnostics () =
  Alcotest.(check int) "Fig. 1 query is lint-clean" 0 (List.length (PA.analyze (Collab.query ())))

(* --- containment --------------------------------------------------------- *)

let tight_query () = Collab.query ()

let loose_query () =
  (* The Fig. 1 query with every threshold dropped and bounds widened:
     a strict superset query. *)
  let q = Collab.query () in
  let nodes =
    Array.init (Pattern.size q) (fun u ->
        let s = Pattern.node_spec q u in
        { s with Pattern.pred = Predicate.always })
  in
  let edges =
    List.map
      (fun (u, v, b) ->
        ( u,
          v,
          match b with Pattern.Bounded k -> Pattern.Bounded (k + 1) | b -> b ))
      (Pattern.edges q)
  in
  Pattern.make_exn ~nodes ~edges ~output:(Pattern.output q)

let test_contains_hand_cases () =
  let tight = tight_query () and loose = loose_query () in
  Alcotest.(check bool) "tight ⊑ loose" true (PA.contains tight loose);
  Alcotest.(check bool) "loose ⋢ tight" false (PA.contains loose tight);
  Alcotest.(check bool) "reflexive" true (PA.contains tight tight);
  (* Unbounded edges only widen. *)
  let unbounded =
    let q = Collab.query () in
    Pattern.make_exn
      ~nodes:(Array.init (Pattern.size q) (Pattern.node_spec q))
      ~edges:(List.map (fun (u, v, _) -> (u, v, Pattern.Unbounded)) (Pattern.edges q))
      ~output:(Pattern.output q)
  in
  Alcotest.(check bool) "bounded ⊑ unbounded" true (PA.contains tight unbounded);
  Alcotest.(check bool) "unbounded ⋢ bounded" false (PA.contains unbounded tight)

let test_superset_map () =
  let tight = tight_query () and loose = loose_query () in
  (match PA.superset_map ~sub:tight ~sup:loose with
  | None -> Alcotest.fail "superset map expected"
  | Some map ->
    Alcotest.(check int) "covers every node" (Pattern.size tight) (Array.length map);
    Array.iter (fun u -> Alcotest.(check bool) "in range" true (u >= 0 && u < Pattern.size loose)) map);
  Alcotest.(check bool) "no map the other way" true (PA.superset_map ~sub:loose ~sup:tight = None)

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let random_graph rng =
  let n = 5 + Prng.int rng 30 in
  let m = Prng.int rng (4 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 6) ]))

(* Loosen [q]: drop predicates and widen bounds at random.  By
   construction [contains q loosened] must hold, and on every graph the
   loosened query's answer must cover the original's. *)
let loosen rng q =
  let nodes =
    Array.init (Pattern.size q) (fun u ->
        let s = Pattern.node_spec q u in
        let pred = if Prng.int rng 2 = 0 then Predicate.always else s.Pattern.pred in
        let label = if Prng.int rng 4 = 0 then None else s.Pattern.label in
        { s with Pattern.pred; label })
  in
  let edges =
    List.map
      (fun (u, v, b) ->
        let b =
          match b with
          | Pattern.Unbounded -> Pattern.Unbounded
          | Pattern.Bounded k ->
            if Prng.int rng 4 = 0 then Pattern.Unbounded else Pattern.Bounded (k + Prng.int rng 3)
        in
        (u, v, b))
      (Pattern.edges q)
  in
  Pattern.make_exn ~nodes ~edges ~output:(Pattern.output q)

let prop_containment_sound seed =
  let rng = Prng.create seed in
  let q1 =
    Testkit.generate rng
      { Pattern_gen.default with nodes = 1 + Prng.int rng 4; extra_edges = Prng.int rng 2 }
      ~labels
  in
  let q2 = loosen rng q1 in
  (* The loosened query is provably a superset... *)
  PA.contains q1 q2
  &&
  (* ... and the answers agree with that on a random graph. *)
  let g = Snapshot.of_digraph (random_graph rng) in
  let m1 = Bounded_sim.run q1 g in
  let m2 = Bounded_sim.run q2 g in
  (not (Match_relation.is_total m1))
  || (Match_relation.is_total m2
     && List.for_all
          (fun v -> Match_relation.mem m2 (Pattern.output q2) v)
          (Match_relation.matches m1 (Pattern.output q1)))

(* Even queries Qlint rejects must round-trip containment soundly:
   a statically empty query is contained in anything that covers its
   shape, because its answer is empty everywhere. *)
let test_contains_statically_empty () =
  let bot = unsat_query () in
  let top =
    Pattern.make_exn
      ~nodes:[| spec "SA" ~label:"SA"; spec "SD" ~label:"SD" |]
      ~edges:[ (0, 1, Pattern.Bounded 2) ]
      ~output:0
  in
  Alcotest.(check bool) "empty query contained in its shape" true (PA.contains bot top)

(* --- Verify: the self-check sanitizer ------------------------------------ *)

let rejects q g m =
  match Verify.check_exn q g m with () -> false | exception Failure _ -> true

let test_verify_accepts_kernel () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let m = Bounded_sim.run q g in
  Alcotest.(check bool) "kernel is total" true (Match_relation.is_total m);
  Verify.check_exn q g m

let test_verify_rejects_bogus_pair () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let m = Bounded_sim.run q g in
  (* Adding any non-matching data node to SA's row breaks validity. *)
  let v =
    let rec first v = if Match_relation.mem m 0 v then first (v + 1) else v in
    first 0
  in
  let corrupt = Match_relation.copy m in
  Match_relation.add corrupt 0 v;
  Alcotest.(check bool) "validity violation reported" true (rejects q g corrupt)

let test_verify_rejects_dropped_pair () =
  let g = Snapshot.of_digraph (Collab.graph ()) in
  let q = Collab.query () in
  let m = Bounded_sim.run q g in
  (* Drop one match of a node that has several: the relation stays
     total but is no longer maximal (or loses a needed witness). *)
  let u =
    let rec scan u =
      if u >= Pattern.size q then None
      else if Match_relation.count m u >= 2 then Some u
      else scan (u + 1)
    in
    scan 0
  in
  match u with
  | None -> Alcotest.fail "fixture: expected a pattern node with >= 2 matches"
  | Some u ->
    let corrupt = Match_relation.copy m in
    Match_relation.remove corrupt u (List.hd (Match_relation.matches m u));
    Alcotest.(check bool) "still total" true (Match_relation.is_total corrupt);
    Alcotest.(check bool) "non-maximality reported" true (rejects q g corrupt)

let test_semantic_equality () =
  let mk pairs = Match_relation.of_pairs ~pattern_size:2 ~graph_size:3 pairs in
  let nt1 = mk [ (0, 1) ] and nt2 = mk [ (0, 2) ] in
  Alcotest.(check bool) "two non-total kernels are the same answer" true
    (Verify.semantically_equal nt1 nt2);
  let t1 = mk [ (0, 1); (1, 2) ] and t2 = mk [ (0, 1); (1, 1) ] in
  Alcotest.(check bool) "different total kernels differ" false (Verify.semantically_equal t1 t2);
  Alcotest.(check bool) "equal total kernels agree" true
    (Verify.semantically_equal t1 (Match_relation.copy t1));
  Alcotest.(check bool) "total vs non-total differ" false (Verify.semantically_equal t1 nt1)

(* --- the planner's static-empty fast path -------------------------------- *)

let test_static_empty_fast_path () =
  with_telemetry true (fun () ->
      let engine = Engine.create (Collab.graph ()) in
      let c = Metrics.counter "planner.static_empty" in
      let before = Counter.value c in
      let answer = Engine.evaluate engine (unsat_query ()) in
      Alcotest.(check bool) "answer is empty" false answer.Engine.total;
      Alcotest.(check int) "static_empty counted once" (before + 1) (Counter.value c);
      match Engine.last_profile engine with
      | None -> Alcotest.fail "telemetry is on: a profile is expected"
      | Some p ->
        let names = Testkit.span_names p.Engine.span in
        Alcotest.(check bool) "plan span present" true (List.mem "plan" names);
        Alcotest.(check bool) "no candidates stage" false (List.mem "candidates" names);
        Alcotest.(check bool) "no refine stage" false (List.mem "refine" names))

(* --- every shipped example query is lint-clean --------------------------- *)

let example_queries () =
  let mk name nodes edges = (name, Pattern.make_exn ~nodes ~edges ~output:0) in
  [
    ("fig1 (collab)", Collab.query ());
    mk "quickstart"
      [|
        spec "SA" ~label:"SA" ~pred:(Predicate.ge_int "exp" 5);
        spec "SD" ~label:"SD" ~pred:(Predicate.ge_int "exp" 2);
        spec "BA" ~label:"BA" ~pred:(Predicate.ge_int "exp" 3);
        spec "ST" ~label:"ST" ~pred:(Predicate.ge_int "exp" 2);
      |]
      [
        (0, 1, Pattern.Bounded 2);
        (1, 0, Pattern.Bounded 2);
        (0, 2, Pattern.Bounded 3);
        (3, 2, Pattern.Bounded 1);
      ];
    mk "team_formation"
      [|
        spec "lead" ~label:"PM" ~pred:(Predicate.ge_int "exp" 5);
        spec "dba" ~label:"DBA" ~pred:(Predicate.ge_int "exp" 5);
        spec "qa" ~label:"QA" ~pred:(Predicate.ge_int "exp" 2);
        spec "architect" ~label:"SA" ~pred:(Predicate.ge_int "exp" 5);
      |]
      [
        (0, 3, Pattern.Bounded 1);
        (3, 0, Pattern.Bounded 1);
        (1, 0, Pattern.Bounded 2);
        (2, 0, Pattern.Bounded 2);
      ];
    mk "twitter_influencers"
      [|
        spec "db_expert" ~label:"DB" ~pred:(Predicate.ge_int "exp" 6);
        spec "ml_fan" ~label:"ML";
        spec "sys_fan" ~label:"Sys";
        spec "sec_source" ~label:"Sec" ~pred:(Predicate.ge_int "exp" 4);
      |]
      [ (1, 0, Pattern.Bounded 2); (2, 0, Pattern.Bounded 2); (0, 3, Pattern.Bounded 3) ];
    mk "dynamic_collaboration"
      [|
        spec "SA" ~label:"SA" ~pred:(Predicate.ge_int "exp" 5);
        spec "SD" ~label:"SD" ~pred:(Predicate.ge_int "exp" 2);
        spec "QA" ~label:"QA";
      |]
      [ (0, 1, Pattern.Bounded 2); (0, 2, Pattern.Bounded 2); (1, 2, Pattern.Bounded 2) ];
    mk "movie_recommendation"
      [|
        spec "rec" ~label:"Movie"
          ~pred:(Predicate.conj (Predicate.eq_str "genre" "scifi") (Predicate.ge_int "rating" 7));
        spec "fan" ~label:"User";
        spec "seed" ~label:"Movie" ~pred:(Predicate.eq_str "name" "The Seed Film");
      |]
      [ (0, 1, Pattern.Bounded 1); (1, 2, Pattern.Bounded 1) ];
  ]

let test_examples_lint_clean () =
  List.iter
    (fun (name, q) ->
      match PA.analyze q with
      | [] -> ()
      | diags ->
        Alcotest.failf "%s: unexpected diagnostics:@ %a" name
          (Format.pp_print_list (PA.pp_diagnostic q))
          diags)
    (example_queries ())

(* --- properties ----------------------------------------------------------- *)

let qcheck_cases =
  [
    QCheck.Test.make ~count:120 ~name:"containment is sound" QCheck.small_int (fun s ->
        prop_containment_sound (s + 1));
    QCheck.Test.make ~count:120 ~name:"simplify preserves semantics" QCheck.small_int (fun s ->
        let rng = Prng.create (s + 1) in
        let q =
          Testkit.generate rng
            { Pattern_gen.default with nodes = 1 + Prng.int rng 3; condition_prob = 1.0 }
            ~labels
        in
        let g = Snapshot.of_digraph (random_graph rng) in
        let simplified =
          Pattern.make_exn
            ~nodes:
              (Array.init (Pattern.size q) (fun u ->
                   let s = Pattern.node_spec q u in
                   { s with Pattern.pred = PA.simplify s.Pattern.pred }))
            ~edges:(Pattern.edges q) ~output:(Pattern.output q)
        in
        Match_relation.equal (Bounded_sim.run q g) (Bounded_sim.run simplified g));
  ]

let () =
  Alcotest.run "analysis"
    [
      ( "satisfiability",
        [
          Alcotest.test_case "integer intervals" `Quick test_unsat_interval;
          Alcotest.test_case "string conflicts" `Quick test_unsat_string_conflict;
          Alcotest.test_case "Ne exhaustion" `Quick test_unsat_ne_exhaustion;
          Alcotest.test_case "mixed types" `Quick test_unsat_mixed_types;
        ] );
      ( "implication",
        [
          Alcotest.test_case "implies" `Quick test_implies;
          Alcotest.test_case "simplify" `Quick test_simplify;
          Alcotest.test_case "subsumes" `Quick test_subsumes;
        ] );
      ( "lints",
        [
          Alcotest.test_case "unsat node" `Quick test_analyze_unsat;
          Alcotest.test_case "structural" `Quick test_analyze_structure;
          Alcotest.test_case "duplicates named" `Quick test_analyze_duplicates;
          Alcotest.test_case "clean query" `Quick test_clean_query_has_no_diagnostics;
        ] );
      ( "containment",
        [
          Alcotest.test_case "hand cases" `Quick test_contains_hand_cases;
          Alcotest.test_case "superset map" `Quick test_superset_map;
          Alcotest.test_case "statically empty" `Quick test_contains_statically_empty;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts the kernel" `Quick test_verify_accepts_kernel;
          Alcotest.test_case "rejects a bogus pair" `Quick test_verify_rejects_bogus_pair;
          Alcotest.test_case "rejects a dropped pair" `Quick test_verify_rejects_dropped_pair;
          Alcotest.test_case "semantic equality" `Quick test_semantic_equality;
        ] );
      ( "planner",
        [ Alcotest.test_case "static-empty fast path" `Quick test_static_empty_fast_path ] );
      ("examples", [ Alcotest.test_case "lint-clean" `Quick test_examples_lint_clean ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
