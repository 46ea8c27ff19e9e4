(* Deeper substrate coverage: reference-based properties for SCC,
   shortest paths, traversal orders, and the small utility modules. *)

open Expfinder_graph

let label_a = Label.of_string "A"

let random_csr ?(max_n = 25) ?(density = 3) rng =
  let n = 1 + Prng.int rng max_n in
  Csr.of_digraph
    (Generators.erdos_renyi rng ~n ~m:(Prng.int rng (density * n)) (fun _ ->
         (label_a, Attrs.empty)))

(* --- SCC vs mutual-reachability reference ------------------------------ *)

(* The component count equals the number of mutual-reachability
   classes, counted by their least member. *)
let prop_scc_reference seed =
  let rng = Prng.create seed in
  let g = random_csr rng in
  let n = Csr.node_count g in
  let ancestors =
    Array.init n (fun v ->
        let set = Bitset.create n in
        Traversal.bfs_rev g [ v ] (fun u _ -> Bitset.add set u);
        set)
  in
  let mutual u v = Bitset.mem ancestors.(u) v && Bitset.mem ancestors.(v) u in
  let classes = ref 0 in
  for u = 0 to n - 1 do
    if not (List.exists (mutual u) (List.init u Fun.id)) then incr classes
  done;
  Scc.count (Scc.compute g) = !classes

(* --- traversal orders ---------------------------------------------------- *)

let prop_bfs_layers_monotone seed =
  let rng = Prng.create seed in
  let g = random_csr rng in
  let order = ref [] in
  Traversal.bfs_rev g [ 0 ] (fun _ d -> order := d :: !order);
  let rec non_decreasing = function
    | a :: b :: rest -> b <= a && non_decreasing (b :: rest)
    | _ -> true
  in
  (* order is reversed, so distances must be non-increasing *)
  non_decreasing !order

(* --- bounded BFS against a reference BFS ------------------------------------ *)

(* Unbounded hop distances from [src] ([-1] when unreachable; [0] for
   the source itself). *)
let distances_from snap src =
  let dist = Array.make (Snapshot.node_count snap) (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Snapshot.iter_succ snap v (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
  done;
  dist

(* The reference above against the library's BFS: on the reversed
   graph, [Traversal.bfs_rev] walks the same edges forward. *)
let prop_distances_from_reference seed =
  let rng = Prng.create seed in
  let g = random_csr rng in
  let n = Csr.node_count g in
  let src = Prng.int rng n in
  let reversed = Digraph.create () in
  for v = 0 to n - 1 do
    ignore (Digraph.add_node reversed (Csr.label g v) : int)
  done;
  Csr.iter_edges g (fun u v -> ignore (Digraph.add_edge reversed v u : bool));
  let expected = Array.make n (-1) in
  Traversal.bfs_rev (Csr.of_digraph reversed) [ src ] (fun v d -> expected.(v) <- d);
  distances_from (Snapshot.of_csr g) src = expected

(* A random digraph of up to 12 nodes with self-loops and cycles of
   length 1 to 3 mixed into its random edges. *)
let random_cyclic_digraph rng =
  let n = 1 + Prng.int rng 12 in
  let g = Digraph.create () in
  for _ = 1 to n do
    ignore (Digraph.add_node g label_a : int)
  done;
  let edge u v = ignore (Digraph.add_edge g u v : bool) in
  for _ = 1 to Prng.int rng (2 * n) do
    edge (Prng.int rng n) (Prng.int rng n)
  done;
  for _ = 0 to Prng.int rng 3 do
    let cycle = Array.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n) in
    Array.iteri (fun i v -> edge v cycle.((i + 1) mod Array.length cycle)) cycle
  done;
  g

(* Every search from every node, for k = 0..4, forward and reverse:
   the reported (w, d) pairs are the nonempty-path ball built from
   [distances_from], in nondecreasing d, and [visits] grows by their
   number.  Between them run searches whose callback raises part-way,
   which must still count every node reached, and [exists_within],
   which stops with its own exception; each next search must still be
   exact. *)
let prop_bounded_bfs seed =
  let rng = Prng.create seed in
  let g = random_cyclic_digraph rng in
  let n = Digraph.node_count g in
  let snap = Snapshot.of_digraph g in
  let dist = Array.init n (distances_from snap) in
  (* Shortest nonempty path from [v] to [w]: one edge, then a path. *)
  let nonempty v w =
    let best = ref (-1) in
    Digraph.iter_succ g v (fun x ->
        let d = dist.(x).(w) in
        if d >= 0 && (!best < 0 || d + 1 < !best) then best := d + 1);
    !best
  in
  let expected ~reverse v k =
    List.filter_map
      (fun w ->
        let d = if reverse then nonempty w v else nonempty v w in
        if d > 0 && d <= k then Some (w, d) else None)
      (List.init n Fun.id)
  in
  let s = Distance.make_scratch snap in
  let ok = ref true in
  let check ~reverse v k =
    let search = if reverse then Distance.reverse_ball else Distance.ball in
    let before = Distance.visits s and seen = ref [] in
    search s snap v k (fun w d -> seen := (w, d) :: !seen);
    let order = List.rev !seen in
    let rec nondecreasing = function
      | (_, a) :: ((_, b) :: _ as rest) -> a <= b && nondecreasing rest
      | _ -> true
    in
    if
      List.sort compare order <> expected ~reverse v k
      || (not (nondecreasing order))
      || Distance.visits s - before <> List.length order
    then ok := false;
    order
  in
  (* The nodes a search has reached when it reports [order]'s [i]-th
     node, at distance [d]: every node up to distance [d], and those at
     [d + 1] that the nodes at [d] reported before it lead to. *)
  let reached ~reverse order i k =
    let d = snd (List.nth order i) in
    let edge x w = if reverse then Digraph.has_edge g w x else Digraph.has_edge g x w in
    let expanded = List.filteri (fun j (_, e) -> j < i && e = d) order in
    List.length
      (List.filter
         (fun (w, e) ->
           e <= d || (e = d + 1 && d < k && List.exists (fun (x, _) -> edge x w) expanded))
         order)
  in
  let interrupt ~reverse v k order =
    let search = if reverse then Distance.reverse_ball else Distance.ball in
    let full = List.length order in
    let stop = Prng.int rng (full + 1) and reported = ref 0 in
    let before = Distance.visits s in
    (match
       search s snap v k (fun _ _ ->
           if !reported = stop then raise Exit;
           incr reported)
     with
    | () -> if stop < full then ok := false
    | exception Exit ->
      if Distance.visits s - before <> reached ~reverse order stop k then ok := false);
    let target = Prng.int rng n in
    let within = List.mem_assoc target (expected ~reverse:false v k) in
    if Distance.exists_within s snap v k (Int.equal target) <> within then ok := false
  in
  for v = 0 to n - 1 do
    for k = 0 to 4 do
      List.iter
        (fun reverse ->
          interrupt ~reverse v k (check ~reverse v k);
          ignore (check ~reverse v k : (int * int) list))
        [ false; true ]
    done
  done;
  !ok

(* --- utility modules ------------------------------------------------------ *)

let test_vec_roundtrip_and_blit () =
  let xs = [ 5; 4; 3; 2; 1 ] in
  let v = Vec.create ~dummy:0 () in
  List.iter (Vec.push v) xs;
  Alcotest.(check (list int)) "roundtrip" xs (Array.to_list (Vec.to_array v));
  let c = Vec.copy v in
  Vec.set c 0 42;
  Alcotest.(check int) "copy independent" 5 (Vec.get v 0);
  Alcotest.(check (list int)) "to_array" xs (Array.to_list (Vec.to_array v))

let test_prng_shuffle_is_permutation () =
  let rng = Prng.create 4 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  Alcotest.(check (list int)) "permutation" (List.init 50 Fun.id)
    (List.sort compare (Array.to_list arr))

let test_attrs_union_bias () =
  let a = Attrs.of_list [ Attrs.int "x" 1; Attrs.int "y" 2 ] in
  let b = Attrs.of_list [ Attrs.int "y" 9; Attrs.str "z" "s" ] in
  let u = Attrs.union a b in
  Alcotest.(check bool) "b wins" true (Attrs.find u "y" = Some (Attr.Int 9));
  Alcotest.(check bool) "a kept" true (Attrs.find u "x" = Some (Attr.Int 1));
  Alcotest.(check int) "merged size" 3 (List.length (Attrs.to_list u))

let test_label_index_complete () =
  let rng = Prng.create 5 in
  let labels = Array.map Label.of_string [| "A"; "B" |] in
  let g =
    Csr.of_digraph
      (Generators.erdos_renyi rng ~n:40 ~m:60 (fun _ -> (Prng.choose rng labels, Attrs.empty)))
  in
  let indexed =
    List.length (Csr.nodes_with_label g labels.(0))
    + List.length (Csr.nodes_with_label g labels.(1))
  in
  Alcotest.(check int) "index covers all nodes" 40 indexed;
  Alcotest.(check (list int)) "missing label" []
    (Csr.nodes_with_label g (Label.of_string "no-such-label-anywhere"))

let test_csr_source_version () =
  let g = Expfinder_workload.Collab.graph () in
  let c1 = Csr.of_digraph g in
  ignore (Digraph.add_edge g 0 3 : bool);
  let c2 = Csr.of_digraph g in
  Alcotest.(check bool) "version advanced" true
    (Csr.source_version c2 > Csr.source_version c1)

let test_self_loop_semantics () =
  let g = Testkit.of_edges ~labels:[| label_a |] [ (0, 0) ] in
  let c = Snapshot.of_digraph g in
  Alcotest.(check int) "self loop kept" 1 (Snapshot.edge_count c);
  let scratch = Distance.make_scratch c in
  let found = ref None in
  Distance.ball scratch c 0 1 (fun w d -> if w = 0 then found := Some d);
  Alcotest.(check (option int)) "self at distance 1" (Some 1) !found

let qcheck_cases =
  [
    QCheck.Test.make ~count:40 ~name:"scc = mutual reachability" QCheck.small_int (fun s ->
        prop_scc_reference (s + 1));
    QCheck.Test.make ~count:60 ~name:"bfs layers monotone" QCheck.small_int (fun s ->
        prop_bfs_layers_monotone (s + 1));
    QCheck.Test.make ~count:60 ~name:"distances_from = bfs" QCheck.small_int (fun s ->
        prop_distances_from_reference (s + 1));
    QCheck.Test.make ~count:80 ~name:"Snapshot bounded BFS = nonempty-path balls"
      QCheck.small_int (fun s -> prop_bounded_bfs (s + 1));
  ]

let () =
  Alcotest.run "graph_extra"
    [
      ( "utilities",
        [
          Alcotest.test_case "vec roundtrip/blit" `Quick test_vec_roundtrip_and_blit;
          Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "attrs union" `Quick test_attrs_union_bias;
        ] );
      ( "csr",
        [
          Alcotest.test_case "label index" `Quick test_label_index_complete;
          Alcotest.test_case "source version" `Quick test_csr_source_version;
          Alcotest.test_case "self loops" `Quick test_self_loop_semantics;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
