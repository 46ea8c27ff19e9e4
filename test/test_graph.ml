(* Unit and property tests for the graph substrate. *)

open Expfinder_graph

(* --- Vec ------------------------------------------------------------ *)

let test_vec_basics () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 41" 42 (Vec.get v 41);
  Vec.set v 41 0;
  Alcotest.(check int) "set" 0 (Vec.get v 41);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Alcotest.(check int) "top" 99 (Vec.top v);
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter sum" (4950 - 42) !sum

let test_vec_remove_first () =
  let v = Vec.create ~dummy:0 () in
  List.iter (Vec.push v) [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "removed" true (Vec.remove_first (fun x -> x = 2) v);
  Alcotest.(check int) "length" 3 (Vec.length v);
  Alcotest.(check bool) "2 gone" false (Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "absent" false (Vec.remove_first (fun x -> x = 9) v)

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 () in
  List.iter (Vec.push v) [ 7; 7; 7 ];
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3 : int));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      ignore (Vec.pop (Vec.create ~dummy:0 ()) : int))

(* --- Prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let y = Prng.int_in rng 5 9 in
    Alcotest.(check bool) "in closed range" true (y >= 5 && y <= 9);
    let f = Prng.float rng 2.0 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.0)
  done

let test_prng_sample () =
  let rng = Prng.create 3 in
  let s = Prng.sample_without_replacement rng 10 50 in
  Alcotest.(check int) "10 samples" 10 (Array.length s);
  let sorted = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length sorted);
  List.iter (fun x -> Alcotest.(check bool) "range" true (x >= 0 && x < 50)) sorted;
  let all = Prng.sample_without_replacement rng 20 20 in
  Alcotest.(check (list int)) "k = n is a permutation" (List.init 20 Fun.id)
    (List.sort compare (Array.to_list all))

(* --- Bitset ---------------------------------------------------------- *)

let test_bitset_basics () =
  let s = Bitset.create 200 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list" [ 0; 63; 64; 199 ] (Bitset.to_list s);
  Bitset.remove s 63;
  Alcotest.(check int) "after remove" 3 (Bitset.cardinal s);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Bitset: out of bounds")
    (fun () -> Bitset.add s 200)

let prop_bitset_model seed =
  (* Compare against a list-based model under random ops. *)
  let rng = Prng.create seed in
  let n = 1 + Prng.int rng 150 in
  let s = Bitset.create n in
  let model = Hashtbl.create 16 in
  for _ = 1 to 300 do
    let i = Prng.int rng n in
    if Testkit.coin rng then begin
      Bitset.add s i;
      Hashtbl.replace model i ()
    end
    else begin
      Bitset.remove s i;
      Hashtbl.remove model i
    end
  done;
  let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
  Bitset.to_list s = expected && Bitset.cardinal s = List.length expected

(* [iter] (and [to_list] on top of it) against a [mem] scan.
   Capacities straddle the 63-bit word boundaries, and the last bit of
   every word (index 62 mod 63, the sign bit of an OCaml int) is set
   with high probability, since it is the step a bit-index search is
   most likely to get wrong. *)
let prop_bitset_iter_is_mem_scan seed =
  let rng = Prng.create seed in
  let words = 1 + Prng.int rng 4 in
  let n = max 1 ((words * 63) + Prng.int_in rng (-2) 2) in
  let s = Bitset.create n in
  let density = Prng.int_in rng 1 10 in
  for i = 0 to n - 1 do
    if i mod 63 = 62 && Prng.int rng 4 > 0 then Bitset.add s i
    else if Prng.int rng 10 < density then Bitset.add s i
  done;
  let scanned = List.filter (Bitset.mem s) (List.init n Fun.id) in
  let iterated = ref [] in
  Bitset.iter (fun i -> iterated := i :: !iterated) s;
  List.rev !iterated = scanned
  && Bitset.to_list s = scanned

(* [iter_xor] against a list symmetric difference, on capacities that
   straddle the 63-bit word boundaries (so most are not a multiple of
   63) and on the last bit of each word. *)
let prop_bitset_iter_xor seed =
  let rng = Prng.create seed in
  let words = 1 + Prng.int rng 4 in
  let n = max 1 ((words * 63) + Prng.int_in rng (-2) 2) in
  let fill () =
    let s = Bitset.create n in
    let density = Prng.int_in rng 0 10 in
    for i = 0 to n - 1 do
      if (i mod 63 = 62 && Testkit.coin rng) || Prng.int rng 10 < density then Bitset.add s i
    done;
    s
  in
  let a = fill () and b = fill () in
  let la = Bitset.to_list a and lb = Bitset.to_list b in
  let expected =
    List.sort compare
      (List.filter (fun i -> not (List.mem i lb)) la
      @ List.filter (fun i -> not (List.mem i la)) lb)
  in
  let seen = ref [] in
  Bitset.iter_xor (fun i -> seen := i :: !seen) a b;
  let mismatch =
    match Bitset.iter_xor ignore a (Bitset.create (n + 1)) with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  List.rev !seen = expected && mismatch

(* [cardinal] against a per-bit [mem] count.  Capacities are 0, one
   word short of full (62), exactly one word (63), one bit into the next
   (64) and a partial tail word; each word is either filled completely
   (all ones, the word -1) or filled at random with its last bit (62,
   the sign bit) set, the bits a word-at-a-time popcount must not drop. *)
let prop_bitset_cardinal seed =
  let rng = Prng.create seed in
  let sizes = [| 0; 62; 63; 64; (63 * (1 + Prng.int rng 3)) + 1 + Prng.int rng 61 |] in
  let n = sizes.(Prng.int rng (Array.length sizes)) in
  let s = Bitset.create n in
  let density = Prng.int_in rng 0 10 in
  for i = 0 to n - 1 do
    let full_word = (i / 63) mod 2 = seed mod 2 in
    if full_word || i mod 63 = 62 || Prng.int rng 10 < density then Bitset.add s i
  done;
  let per_bit = List.length (List.filter (Bitset.mem s) (List.init n Fun.id)) in
  Bitset.cardinal s = per_bit

let test_bitset_setops () =
  let a = Bitset.create 100 and b = Bitset.create 100 in
  List.iter (Bitset.add a) [ 1; 2; 3 ];
  List.iter (Bitset.add b) [ 2; 3; 4 ];
  let c = Bitset.copy a in
  Alcotest.(check bool) "copy equal" true (Bitset.equal c a);
  Bitset.add c 4;
  Alcotest.(check bool) "copy independent" false (Bitset.equal c a);
  Alcotest.(check (list int)) "original untouched" [ 1; 2; 3 ] (Bitset.to_list a);
  let xor = ref [] in
  Bitset.iter_xor (fun i -> xor := i :: !xor) a b;
  Alcotest.(check (list int)) "symmetric difference" [ 1; 4 ] (List.rev !xor)

(* --- Label / Attr / Attrs --------------------------------------------- *)

let test_label_interning () =
  let a = Label.of_string "interning-test-a" in
  let a' = Label.of_string "interning-test-a" in
  let b = Label.of_string "interning-test-b" in
  Alcotest.(check bool) "idempotent" true (Label.equal a a');
  Alcotest.(check bool) "distinct" false (Label.equal a b);
  Alcotest.(check string) "round trip" "interning-test-a" (Label.to_string a)

let test_attr_parse_roundtrip () =
  List.iter
    (fun v ->
      match Attr.of_string (Attr.to_string v) with
      | Ok v' -> Alcotest.(check bool) (Attr.to_string v) true (Attr.equal v v')
      | Error e -> Alcotest.fail e)
    [ Attr.Int 42; Attr.Int (-3); Attr.Float 2.5; Attr.Bool true; Attr.String "DBA" ]

let test_attr_inference () =
  Alcotest.(check bool) "int inferred" true (Attr.of_string "17" = Ok (Attr.Int 17));
  Alcotest.(check bool) "bool inferred" true (Attr.of_string "true" = Ok (Attr.Bool true));
  Alcotest.(check bool) "string fallback" true (Attr.of_string "hello" = Ok (Attr.String "hello"));
  Alcotest.(check bool) "cross-type compare" true
    (Attr.compare_values (Attr.Int 1) (Attr.String "1") = None)

let test_attrs_ops () =
  let a = Attrs.of_list [ Attrs.int "exp" 5; Attrs.str "name" "Bob"; Attrs.int "exp" 7 ] in
  Alcotest.(check int) "last wins, dedup" 2 (List.length (Attrs.to_list a));
  Alcotest.(check bool) "exp=7" true (Attrs.find a "exp" = Some (Attr.Int 7));
  let b = Attrs.union a (Attrs.of_list [ Attrs.int "exp" 9 ]) in
  Alcotest.(check bool) "union overrides" true (Attrs.find b "exp" = Some (Attr.Int 9));
  Alcotest.(check bool) "original untouched" true (Attrs.find a "exp" = Some (Attr.Int 7));
  Alcotest.(check bool) "sorted bindings" true
    (Attrs.to_list a = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) (Attrs.to_list a))

(* --- Digraph / Csr ----------------------------------------------------- *)

let small_graph () =
  let l = Label.of_string "X" in
  Testkit.of_edges ~labels:[| l; l; l; l |] [ (0, 1); (1, 2); (2, 0); (2, 3) ]

let test_digraph_basics () =
  let g = small_graph () in
  Alcotest.(check int) "nodes" 4 (Digraph.node_count g);
  Alcotest.(check int) "edges" 4 (Digraph.edge_count g);
  Alcotest.(check bool) "has 0->1" true (Digraph.has_edge g 0 1);
  Alcotest.(check bool) "no 1->0" false (Digraph.has_edge g 1 0);
  Alcotest.(check bool) "duplicate rejected" false (Digraph.add_edge g 0 1);
  Alcotest.(check bool) "self loop allowed" true (Digraph.add_edge g 3 3);
  Alcotest.(check bool) "remove" true (Digraph.remove_edge g 3 3);
  Alcotest.(check bool) "remove absent" false (Digraph.remove_edge g 3 3);
  Alcotest.(check int) "out degree 2" 2 (Digraph.out_degree g 2);
  Alcotest.(check int) "in degree 0 of 0" 1 (Digraph.in_degree g 0);
  let succ = ref [] in
  Digraph.iter_succ g 2 (fun v -> succ := v :: !succ);
  Alcotest.(check (list int)) "succ 2" [ 0; 3 ] (List.sort compare !succ)

let test_digraph_version_and_copy () =
  let g = small_graph () in
  let v0 = Digraph.version g in
  ignore (Digraph.add_edge g 3 0 : bool);
  Alcotest.(check bool) "version bumped" true (Digraph.version g > v0);
  let copy = Digraph.copy g in
  Alcotest.(check bool) "copy equal" true (Digraph.equal_structure g copy);
  ignore (Digraph.remove_edge copy 3 0 : bool);
  Alcotest.(check bool) "copy independent" true (Digraph.has_edge g 3 0)

let test_csr_mirrors_digraph () =
  let g = small_graph () in
  let c = Csr.of_digraph g in
  Alcotest.(check int) "nodes" 4 (Csr.node_count c);
  Alcotest.(check int) "edges" 4 (Csr.edge_count c);
  Alcotest.(check bool) "has edge" true (Csr.has_edge c 2 3);
  Alcotest.(check int) "out degree" 2 (Csr.out_degree c 2);
  Alcotest.(check int) "in degree" 1 (Csr.in_degree c 3);
  let back = Csr.to_digraph c in
  Alcotest.(check bool) "roundtrip" true (Digraph.equal_structure g back);
  Alcotest.(check (list int)) "label index" [ 0; 1; 2; 3 ]
    (List.sort compare (Csr.nodes_with_label c (Label.of_string "X")))

let prop_csr_roundtrip seed =
  let rng = Prng.create seed in
  let labels = Array.map Label.of_string [| "A"; "B" |] in
  let n = 1 + Prng.int rng 30 in
  let g =
    Generators.erdos_renyi rng ~n ~m:(Prng.int rng (2 * n)) (fun _ ->
        (Prng.choose rng labels, Attrs.empty))
  in
  Digraph.equal_structure g (Csr.to_digraph (Csr.of_digraph g))

(* --- Traversal / Distance / Scc ----------------------------------------- *)

let test_bfs_distances () =
  let c = Csr.of_digraph (small_graph ()) in
  let seen = Hashtbl.create 8 in
  (* Reverse BFS from 3 over 0->1->2->0, 2->3. *)
  Traversal.bfs_rev c [ 3 ] (fun v d -> Hashtbl.replace seen v d);
  Alcotest.(check int) "d(3)" 0 (Hashtbl.find seen 3);
  Alcotest.(check int) "d(2)" 1 (Hashtbl.find seen 2);
  Alcotest.(check int) "d(1)" 2 (Hashtbl.find seen 1);
  Alcotest.(check int) "d(0)" 3 (Hashtbl.find seen 0)

let test_ancestors () =
  let c = Csr.of_digraph (small_graph ()) in
  let set = Bitset.create (Csr.node_count c) in
  Traversal.bfs_rev c [ 3 ] (fun v _ -> Bitset.add set v);
  Alcotest.(check (list int)) "ancestors of 3" [ 0; 1; 2; 3 ] (Bitset.to_list set)

let test_topological () =
  let l = Label.of_string "X" in
  let dag = Csr.of_digraph (Testkit.of_edges ~labels:[| l; l; l |] [ (0, 1); (1, 2) ]) in
  (* Without self-loops, a graph is acyclic iff every component is a
     single node. *)
  Alcotest.(check bool) "dag" true (Scc.count (Scc.compute dag) = Csr.node_count dag);
  let cyc = Csr.of_digraph (small_graph ()) in
  Alcotest.(check bool) "cycle" false (Scc.count (Scc.compute cyc) = Csr.node_count cyc)

let test_ball_nonempty_path_semantics () =
  let c = Snapshot.of_digraph (small_graph ()) in
  let scratch = Distance.make_scratch c in
  (* Ball of 0 with k=3 over cycle 0->1->2->0 plus 2->3. *)
  let found = Hashtbl.create 8 in
  Distance.ball scratch c 0 3 (fun v d -> Hashtbl.replace found v d);
  Alcotest.(check (option int)) "1 at 1" (Some 1) (Hashtbl.find_opt found 1);
  Alcotest.(check (option int)) "2 at 2" (Some 2) (Hashtbl.find_opt found 2);
  Alcotest.(check (option int)) "0 itself at 3 (cycle)" (Some 3) (Hashtbl.find_opt found 0);
  Alcotest.(check (option int)) "3 at 3" (Some 3) (Hashtbl.find_opt found 3);
  (* With k=2 the source must not appear. *)
  Hashtbl.reset found;
  Distance.ball scratch c 0 2 (fun v d -> Hashtbl.replace found v d);
  Alcotest.(check (option int)) "no self at k=2" None (Hashtbl.find_opt found 0);
  (* k=0 finds nothing. *)
  Hashtbl.reset found;
  Distance.ball scratch c 0 0 (fun v d -> Hashtbl.replace found v d);
  Alcotest.(check int) "k=0 empty" 0 (Hashtbl.length found)

let test_reverse_ball_symmetry () =
  let rng = Prng.create 23 in
  let labels = [| Label.of_string "A" |] in
  let g =
    Snapshot.of_digraph
      (Generators.erdos_renyi rng ~n:30 ~m:80 (fun _ -> (labels.(0), Attrs.empty)))
  in
  let scratch = Distance.make_scratch g in
  for k = 1 to 3 do
    for v = 0 to 29 do
      let fwd = Hashtbl.create 8 in
      Distance.ball scratch g v k (fun w d -> Hashtbl.replace fwd w d);
      Hashtbl.iter
        (fun w d ->
          (* w in ball(v,k) at distance d iff v in reverse_ball(w,k) at d. *)
          let found = ref None in
          Distance.reverse_ball scratch g w k (fun p d' -> if p = v then found := Some d');
          Alcotest.(check (option int))
            (Printf.sprintf "symmetry v=%d w=%d k=%d" v w k)
            (Some d) !found)
        fwd
    done
  done

let test_scc () =
  let c = Csr.of_digraph (small_graph ()) in
  let scc = Scc.compute c in
  Alcotest.(check int) "2 components" 2 (Scc.count scc)

(* --- Generators --------------------------------------------------------- *)

let test_generator_sizes () =
  let rng = Prng.create 5 in
  let labels = [| Label.of_string "A" |] in
  let init _ = (labels.(0), Attrs.empty) in
  let er = Generators.erdos_renyi rng ~n:100 ~m:300 init in
  Alcotest.(check int) "er nodes" 100 (Digraph.node_count er);
  Alcotest.(check int) "er edges" 300 (Digraph.edge_count er)

(* --- Graph_io ------------------------------------------------------------ *)

let collab_like () =
  let labels = Array.map Label.of_string [| "SA"; "SD" |] in
  Testkit.of_edges ~labels
    ~attrs:(fun i ->
      Attrs.of_list [ Attrs.str "name" (Printf.sprintf "p %d" i); Attrs.int "exp" i ])
    [ (0, 1); (1, 0) ]

let test_io_roundtrip () =
  let g = collab_like () in
  match Testkit.roundtrip Graph_io.save Graph_io.load g with
  | Ok g' -> Alcotest.(check bool) "roundtrip" true (Digraph.equal_structure g g')
  | Error e -> Alcotest.fail e

let test_io_escaping () =
  Alcotest.(check string) "escape/unescape" "a b=c%d"
    (Graph_io.unescape (Graph_io.escape "a b=c%d"))

let test_io_errors () =
  let bad input msg =
    match Testkit.load_text Graph_io.load input with
    | Ok _ -> Alcotest.fail ("accepted bad input: " ^ msg)
    | Error _ -> ()
  in
  bad "" "empty";
  bad "wrong header" "header";
  bad "expfinder-graph 1\nnode 1 A" "non-dense id";
  bad "expfinder-graph 1\nnode 0 A\nedge 0 5" "unknown endpoint";
  bad "expfinder-graph 1\nfrob 1 2" "unknown record"

let prop_io_roundtrip seed =
  let rng = Prng.create seed in
  let labels = Array.map Label.of_string [| "A"; "B"; "C" |] in
  let n = 1 + Prng.int rng 25 in
  let g =
    Generators.erdos_renyi rng ~n ~m:(Prng.int rng (2 * n)) (fun i ->
        ( Prng.choose rng labels,
          Attrs.of_list [ Attrs.int "exp" (Prng.int rng 9); Attrs.str "name" (Printf.sprintf "n%d" i) ]
        ))
  in
  match Testkit.roundtrip Graph_io.save Graph_io.load g with
  | Ok g' -> Digraph.equal_structure g g'
  | Error _ -> false

let test_edge_list_import () =
  let text = "# SNAP-style comment\n5\t7\n7 5\n\n5 9\n# trailing\n9\t5\n" in
  match Testkit.load_text Graph_io.load_edge_list text with
  | Error e -> Alcotest.fail e
  | Ok g ->
    Alcotest.(check int) "3 distinct nodes" 3 (Digraph.node_count g);
    Alcotest.(check int) "4 edges" 4 (Digraph.edge_count g);
    (* first-appearance renumbering: 5 -> 0, 7 -> 1, 9 -> 2 *)
    Alcotest.(check bool) "0 -> 1" true (Digraph.has_edge g 0 1);
    Alcotest.(check bool) "1 -> 0" true (Digraph.has_edge g 1 0);
    Alcotest.(check bool) "2 -> 0" true (Digraph.has_edge g 2 0)

let test_edge_list_errors () =
  List.iter
    (fun text ->
      match Testkit.load_text Graph_io.load_edge_list text with
      | Ok _ -> Alcotest.fail ("accepted " ^ text)
      | Error _ -> ())
    [ "1 2 3"; "a b"; "-1 2" ]

let test_edge_list_node_init () =
  let l = Label.of_string "user" in
  match
    Testkit.load_text
      (Graph_io.load_edge_list ~node_init:(fun i -> (l, Attrs.of_list [ Attrs.int "id" i ])))
      "3 4"
  with
  | Error e -> Alcotest.fail e
  | Ok g ->
    Alcotest.(check bool) "label applied" true (Label.equal (Digraph.label g 0) l);
    Alcotest.(check bool) "attr applied" true
      (Attrs.find (Digraph.attrs g 1) "id" = Some (Attr.Int 1))

let qcheck_cases =
  [
    QCheck.Test.make ~count:100 ~name:"bitset model" QCheck.small_int (fun s ->
        prop_bitset_model (s + 1));
    QCheck.Test.make ~count:200 ~name:"bitset iter = mem scan" QCheck.small_int (fun s ->
        prop_bitset_iter_is_mem_scan (s + 1));
    QCheck.Test.make ~count:200 ~name:"bitset iter_xor = symmetric difference"
      QCheck.small_int (fun s -> prop_bitset_iter_xor (s + 1));
    QCheck.Test.make ~count:200 ~name:"bitset cardinal = per-bit count" QCheck.small_int
      (fun s -> prop_bitset_cardinal (s + 1));
    QCheck.Test.make ~count:50 ~name:"csr roundtrip" QCheck.small_int (fun s ->
        prop_csr_roundtrip (s + 1));
    QCheck.Test.make ~count:50 ~name:"graph io roundtrip" QCheck.small_int (fun s ->
        prop_io_roundtrip (s + 1));
  ]

let () =
  Alcotest.run "graph"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "remove_first" `Quick test_vec_remove_first;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "sampling" `Quick test_prng_sample;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "set ops" `Quick test_bitset_setops;
        ] );
      ( "attrs",
        [
          Alcotest.test_case "label interning" `Quick test_label_interning;
          Alcotest.test_case "attr roundtrip" `Quick test_attr_parse_roundtrip;
          Alcotest.test_case "attr inference" `Quick test_attr_inference;
          Alcotest.test_case "attrs ops" `Quick test_attrs_ops;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "version and copy" `Quick test_digraph_version_and_copy;
          Alcotest.test_case "csr mirror" `Quick test_csr_mirrors_digraph;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "ancestors" `Quick test_ancestors;
          Alcotest.test_case "topological" `Quick test_topological;
          Alcotest.test_case "ball semantics" `Quick test_ball_nonempty_path_semantics;
          Alcotest.test_case "reverse ball symmetry" `Quick test_reverse_ball_symmetry;
          Alcotest.test_case "scc" `Quick test_scc;
        ] );
      ( "generators",
        [
          Alcotest.test_case "sizes" `Quick test_generator_sizes;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "escaping" `Quick test_io_escaping;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "edge-list import" `Quick test_edge_list_import;
          Alcotest.test_case "edge-list errors" `Quick test_edge_list_errors;
          Alcotest.test_case "edge-list node_init" `Quick test_edge_list_node_init;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
