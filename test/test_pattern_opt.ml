(* Pattern minimisation: duplicate merging and output projection preserve
   the semantics they promise. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let spec ?(pred = Predicate.always) name label =
  { Pattern.name; label = Some (Label.of_string label); pred }

let random_graph rng =
  let n = 1 + Prng.int rng 30 in
  let m = Prng.int rng (3 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ]))

(* A query with two interchangeable developers: SA -> SD1 (2), SA -> SD2
   (3), SD1/SD2 -> ST (1).  SD1 and SD2 are structural duplicates. *)
let duplicate_query () =
  Pattern.make_exn
    ~nodes:
      [|
        spec "SA" "A" ~pred:(Predicate.ge_int "exp" 2);
        spec "SD1" "B";
        spec "SD2" "B";
        spec "ST" "C";
      |]
    ~edges:
      [
        (0, 1, Pattern.Bounded 2);
        (0, 2, Pattern.Bounded 3);
        (1, 3, Pattern.Bounded 1);
        (2, 3, Pattern.Bounded 1);
      ]
    ~output:0

let test_duplicates_merge () =
  let q = duplicate_query () in
  let minimised, renaming = Pattern_opt.minimise q in
  Alcotest.(check int) "3 nodes left" 3 (Pattern.size minimised);
  Alcotest.(check int) "SD1 and SD2 coincide" renaming.(1) renaming.(2);
  Alcotest.(check int) "output preserved" renaming.(0) (Pattern.output minimised);
  (* The two parallel constraints collapse to the tighter bound. *)
  Alcotest.(check bool) "tighter bound kept" true
    (Pattern.bound_of minimised renaming.(0) renaming.(1) = Some (Pattern.Bounded 2))

let test_no_merge_when_distinct () =
  (* Same label but different predicates: not duplicates. *)
  let q =
    Pattern.make_exn
      ~nodes:
        [|
          spec "SA" "A";
          spec "SD1" "B" ~pred:(Predicate.ge_int "exp" 1);
          spec "SD2" "B" ~pred:(Predicate.ge_int "exp" 2);
        |]
      ~edges:[ (0, 1, Pattern.Bounded 1); (0, 2, Pattern.Bounded 1) ]
      ~output:0
  in
  let minimised, _ = Pattern_opt.minimise q in
  Alcotest.(check int) "nothing merged" 3 (Pattern.size minimised)

let test_self_reference_guard () =
  (* B1 -> B2 and B2 -> B1 with equal specs: merging would need a pattern
     self-loop; the group must be kept apart. *)
  let q =
    Pattern.make_exn
      ~nodes:[| spec "A" "A"; spec "B1" "B"; spec "B2" "B" |]
      ~edges:
        [ (0, 1, Pattern.Bounded 1); (1, 2, Pattern.Bounded 1); (2, 1, Pattern.Bounded 1) ]
      ~output:0
  in
  let minimised, _ = Pattern_opt.minimise q in
  (* B1 has out {B2}, B2 has out {B1}: with both in one prospective class
     the guard refuses; sizes stay. *)
  Alcotest.(check int) "guarded" 3 (Pattern.size minimised)

let prop_minimise_preserves_matches seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  (* Inflate a random pattern with a duplicated node to exercise merging. *)
  let base =
    Testkit.generate rng
      { Pattern_gen.default with nodes = 1 + Prng.int rng 3; extra_edges = Prng.int rng 2 }
      ~labels
  in
  let n = Pattern.size base in
  let dup = Prng.int rng n in
  let nodes = Array.init (n + 1) (fun u -> Pattern.node_spec base (min u (n - 1))) in
  nodes.(n) <- Pattern.node_spec base dup;
  let edges =
    Pattern.edges base
    @ List.map (fun (v, b) -> (n, v, b)) (Pattern.out_edges base dup)
    @
    (* give the clone one incoming edge so it is attached *)
    if dup = Pattern.output base then [ (Pattern.output base, n, Pattern.Bounded 2) ]
    else []
  in
  match Pattern.make ~nodes ~edges ~output:(Pattern.output base) with
  | Error _ -> true (* clone collided with an existing edge; skip *)
  | Ok inflated ->
    let minimised, renaming = Pattern_opt.minimise inflated in
    let m_orig = Bounded_sim.run inflated g in
    let m_min = Bounded_sim.run minimised g in
    let ok = ref true in
    for u = 0 to Pattern.size inflated - 1 do
      if Match_relation.matches m_orig u <> Match_relation.matches m_min renaming.(u) then
        ok := false
    done;
    !ok

let qcheck_cases =
  [
    QCheck.Test.make ~count:80 ~name:"minimise preserves matches" QCheck.small_int (fun s ->
        prop_minimise_preserves_matches (s + 1));
  ]

let () =
  Alcotest.run "pattern_opt"
    [
      ( "minimise",
        [
          Alcotest.test_case "duplicates merge" `Quick test_duplicates_merge;
          Alcotest.test_case "distinct preserved" `Quick test_no_merge_when_distinct;
          Alcotest.test_case "self-reference guard" `Quick test_self_reference_guard;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
