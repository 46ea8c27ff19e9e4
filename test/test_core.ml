(* Core matching: the production engines (HHK simulation, the
   witness-list bounded simulation) checked against a brute-force
   reference implementation of the paper's definition, plus result-graph
   and ranking behaviour. *)

open Expfinder_graph
open Expfinder_pattern
open Expfinder_core

let labels = Array.map Label.of_string [| "A"; "B"; "C" |]

let random_graph rng =
  let n = 1 + Prng.int rng 25 in
  let m = Prng.int rng (3 * n) in
  Generators.erdos_renyi rng ~n ~m (fun _ ->
      (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ]))

let random_pattern rng ~simulation ~unbounded =
  let c =
    {
      Pattern_gen.default with
      nodes = 1 + Prng.int rng 4;
      extra_edges = Prng.int rng 3;
      max_bound = 3;
      unbounded_prob = (if unbounded then 0.3 else 0.0);
      condition_prob = 0.5;
      condition_range = (0, 3);
    }
  in
  let c = if simulation then Pattern_gen.simulation_config c else c in
  Testkit.generate rng c ~labels

(* Brute-force greatest fixpoint straight from the definition: all-pairs
   nonempty-path distances + sweep-until-stable, removing pairs only on
   nodes of [mutable_set] ([None]: every node).  O(n^2·m) — fine for the
   tiny random graphs used here. *)
let reference ?mutable_set pattern g =
  let is_mutable v = match mutable_set with None -> true | Some s -> Bitset.mem s v in
  let n = Snapshot.node_count g in
  let scratch = Distance.make_scratch g in
  let dist = Array.make_matrix (max n 1) (max n 1) (-1) in
  for v = 0 to n - 1 do
    Distance.ball scratch g v n (fun w d -> dist.(v).(w) <- d)
  done;
  let m =
    Match_relation.create ~pattern_size:(Pattern.size pattern) ~graph_size:n
  in
  for u = 0 to Pattern.size pattern - 1 do
    for v = 0 to n - 1 do
      if Pattern.matches_node pattern u (Snapshot.label g v) (Snapshot.attrs g v) then
        Match_relation.add m u v
    done
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for u = 0 to Pattern.size pattern - 1 do
      List.iter
        (fun v ->
          let ok =
            List.for_all
              (fun (u', b) ->
                List.exists
                  (fun w ->
                    dist.(v).(w) >= 1
                    &&
                    match b with
                    | Pattern.Unbounded -> true
                    | Pattern.Bounded k -> dist.(v).(w) <= k)
                  (Match_relation.matches m u'))
              (Pattern.out_edges pattern u)
          in
          if (not ok) && is_mutable v then begin
            Match_relation.remove m u v;
            changed := true
          end)
        (Match_relation.matches m u)
    done
  done;
  m

let prop_simulation_matches_reference seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:true ~unbounded:false in
  Match_relation.equal (Simulation.run pattern g) (reference pattern g)

(* The witness kernel equals the reference, and [Verify] accepts it,
   on bounded patterns and on patterns with unbounded edges. *)
let prop_bsim_matches_reference ~unbounded seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded in
  let m = Bounded_sim.run pattern g in
  Match_relation.equal m (reference pattern g) && Testkit.verified pattern g m

(* The two ways into the witness kernel on patterns with unbounded
   edges: from the full candidate sets it equals the reference; through
   the planner, whose early exit and sink pruning may shave pairs out of
   a non-total kernel, it gives the same answer M(Q,G). *)
let prop_bsim_strategies_agree seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:true in
  let expected = reference pattern g in
  let planned = Planner.run pattern g in
  Match_relation.equal (Bounded_sim.run pattern g) expected
  &&
  if Match_relation.is_total expected then Match_relation.equal planned expected
  else not (Match_relation.is_total planned)

(* A random graph of up to 25 nodes whose random edges are mixed with
   self-loops and cycles of length 1 to 3. *)
let random_cyclic_graph rng =
  let n = 1 + Prng.int rng 25 in
  let g =
    Generators.erdos_renyi rng ~n ~m:(Prng.int rng (2 * n)) (fun _ ->
        (Prng.choose rng labels, Attrs.of_list [ Attrs.int "exp" (Prng.int rng 4) ]))
  in
  let edge u v = ignore (Digraph.add_edge g u v : bool) in
  for _ = 0 to Prng.int rng 3 do
    let cycle = Array.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n) in
    Array.iteri (fun i v -> edge v cycle.((i + 1) mod Array.length cycle)) cycle
  done;
  g

(* A component planted beside the random edges, for the pattern
   A -> B -> C -> A: a hub [h] (B) whose only C successor [x] has no
   A successor, and at least 20 A candidates pointing at [h] first.
   Group 0 has no other B; group 1 also reaches [b2], whose C [y] only
   reaches the first member of group 0; group 2 also reaches [b3], on
   the cycle [b3 -> y3 -> a3 -> b3].  Whatever the bounds, the fixpoint
   keeps only group 2 and that cycle, and the witness kernel gets there
   by a cascade: [x] goes, then [h]; [h]'s dependents search again,
   group 0 goes and groups 1 and 2 relink; that takes [y], then [b2],
   and group 1 is searched again after its relink. *)
let plant_hub rng g =
  let node l = Digraph.add_node g ~attrs:(Attrs.of_list [ Attrs.int "exp" 3 ]) labels.(l) in
  let edge u v = ignore (Digraph.add_edge g u v : bool) in
  let a = 0 and b = 1 and c = 2 in
  let h = node b and x = node c in
  edge h x;
  let group size second =
    List.init size (fun _ ->
        let v = node a in
        edge v h;
        Option.iter (edge v) second;
        v)
  in
  let g0 = group (2 + Prng.int rng 8) None in
  let b2 = node b and y = node c in
  edge b2 y;
  edge y (List.hd g0);
  let g1 = group (2 + Prng.int rng 8) (Some b2) in
  let b3 = node b and y3 = node c and a3 = node a in
  edge b3 y3;
  edge y3 a3;
  edge a3 b3;
  ignore (group (max 2 (20 - List.length g0 - List.length g1) + Prng.int rng 4) (Some b3))

(* [pattern] with edge [i] of its edges made unbounded. *)
let with_unbounded pattern i =
  let edges =
    List.mapi (fun j (u, v, b) -> (u, v, if j = i then Pattern.Unbounded else b))
      (Pattern.edges pattern)
  in
  let nodes = Array.init (Pattern.size pattern) (Pattern.node_spec pattern) in
  Pattern.make_exn ~nodes ~edges ~output:(Pattern.output pattern)

(* The witness kernel against the brute-force reference, with every
   node mutable and with a random mutable set, on a random cyclic
   graph with a planted hub, for a random pattern and for the hub's
   triangle pattern, each with bounds 1..3 and one unbounded edge. *)
let prop_witness_matches_oracle seed =
  let rng = Prng.create seed in
  let g = random_cyclic_graph rng in
  plant_hub rng g;
  let g = Snapshot.of_digraph g in
  let spec l =
    { Pattern.name = Label.to_string labels.(l); label = Some labels.(l); pred = Predicate.always }
  in
  let bound () = Pattern.Bounded (1 + Prng.int rng 3) in
  let triangle =
    Pattern.make_exn
      ~nodes:[| spec 0; spec 1; spec 2 |]
      ~edges:[ (0, 1, bound ()); (1, 2, bound ()); (2, 0, bound ()) ]
      ~output:0
  in
  let random = random_pattern rng ~simulation:false ~unbounded:false in
  List.for_all
    (fun pattern ->
      let pattern =
        match Pattern.edges pattern with
        | [] -> pattern
        | edges -> with_unbounded pattern (Prng.int rng (List.length edges))
      in
      let initial = Candidates.compute pattern g in
      let witness mutable_set =
        Bounded_sim.refine ~work:(Work.create ()) pattern g ~initial ~mutable_set
      in
      let mutable_set = Bitset.create (Snapshot.node_count g) in
      Snapshot.iter_nodes g (fun v -> if Testkit.coin rng then Bitset.add mutable_set v);
      Match_relation.equal (witness None) (reference pattern g)
      && Match_relation.equal (witness (Some mutable_set)) (reference ~mutable_set pattern g))
    [ triangle; random ]

let prop_bound1_equals_simulation seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:true ~unbounded:false in
  Match_relation.equal (Simulation.run pattern g) (Bounded_sim.run pattern g)

let prop_kernel_consistent seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  let m = Bounded_sim.run pattern g in
  Testkit.verified pattern g m

let prop_relaxing_bounds_grows_matches seed =
  (* Monotonicity: raising a bound can only add matches. *)
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  let relaxed_edges =
    List.map
      (fun (u, v, b) ->
        match b with
        | Pattern.Bounded k -> (u, v, Pattern.Bounded (k + 1))
        | Pattern.Unbounded -> (u, v, Pattern.Unbounded))
      (Pattern.edges pattern)
  in
  let nodes = Array.init (Pattern.size pattern) (Pattern.node_spec pattern) in
  let relaxed = Pattern.make_exn ~nodes ~edges:relaxed_edges ~output:(Pattern.output pattern) in
  let tight = Bounded_sim.run pattern g in
  let loose = Bounded_sim.run relaxed g in
  List.for_all
    (fun (u, v) -> Match_relation.mem loose u v)
    (Match_relation.pairs tight)

(* --- Match_relation ------------------------------------------------------ *)

let test_match_relation_ops () =
  let m = Match_relation.create ~pattern_size:2 ~graph_size:10 in
  Alcotest.(check bool) "not total" false (Match_relation.is_total m);
  Match_relation.add m 0 3;
  Match_relation.add m 1 5;
  Match_relation.add m 1 2;
  Alcotest.(check bool) "total" true (Match_relation.is_total m);
  Alcotest.(check int) "total pairs" 3 (Match_relation.total m);
  Alcotest.(check (list (pair int int))) "pairs" [ (0, 3); (1, 2); (1, 5) ] (Match_relation.pairs m);
  let c = Match_relation.copy m in
  Match_relation.remove c 0 3;
  Alcotest.(check bool) "copy independent" true (Match_relation.mem m 0 3);
  Alcotest.(check bool) "not equal" false (Match_relation.equal m c);
  let m2 = Match_relation.of_pairs ~pattern_size:2 ~graph_size:10 (Match_relation.pairs m) in
  Alcotest.(check bool) "of_pairs" true (Match_relation.equal m m2)

(* Gr's data nodes, ascending, and its weighted edges over data-node
   ids, read through the compact forward adjacency.  Gr has one node per
   data node the relation matches. *)
let gr_edges m gr =
  let nodes =
    List.sort_uniq compare (List.map snd (Match_relation.pairs m))
    |> List.filter (fun v -> Result_graph.index_of gr v <> None)
  in
  assert (List.length nodes = Result_graph.node_count gr);
  let of_index = Array.make (Result_graph.node_count gr) (-1) in
  List.iter (fun v -> of_index.(Option.get (Result_graph.index_of gr v)) <- v) nodes;
  let adj = Result_graph.forward gr in
  let edges =
    List.concat_map
      (fun v ->
        let i = Option.get (Result_graph.index_of gr v) in
        List.init
          (adj.offsets.(i + 1) - adj.offsets.(i))
          (fun p ->
            let p = adj.offsets.(i) + p in
            (v, of_index.(adj.targets.(p)), adj.weights.(p))))
      nodes
  in
  (nodes, edges)

(* --- Candidates ----------------------------------------------------------- *)

let test_candidates_respect_predicates () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let c = Candidates.compute q g in
  (* SD candidates: everyone with the SD label and exp >= 2, including
     Fred (edge constraints are not applied yet). *)
  Alcotest.(check (list int)) "SD candidates"
    (List.sort compare
       Expfinder_workload.Collab.[ dan; mat; pat; fred ])
    (Match_relation.matches c 1);
  (* SA candidates need exp >= 5. *)
  Alcotest.(check (list int)) "SA candidates"
    Expfinder_workload.Collab.[ walt; bob ]
    (Match_relation.matches c 0)

(* --- Empty / degenerate cases ---------------------------------------------- *)

let test_no_match_is_untotal () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "CEO"; label = Some (Label.of_string "CEO"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let m = Bounded_sim.run p g in
  Alcotest.(check bool) "untotal" false (Match_relation.is_total m);
  Alcotest.(check int) "no pairs" 0 (Match_relation.total m)

let test_single_node_pattern () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let m = Simulation.run p g in
  Alcotest.(check (list int)) "both SAs"
    Expfinder_workload.Collab.[ walt; bob ]
    (Match_relation.matches m 0)

let test_empty_graph () =
  let g = Snapshot.of_digraph (Digraph.create ()) in
  let nodes =
    [| { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  Alcotest.(check int) "no matches" 0 (Match_relation.total (Bounded_sim.run p g));
  Alcotest.(check int) "sim no matches" 0 (Match_relation.total (Simulation.run p g))

(* --- Result graph / ranking ------------------------------------------------ *)

let test_result_graph_empty_relation () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let empty = Match_relation.create ~pattern_size:(Pattern.size q) ~graph_size:(Snapshot.node_count g) in
  let gr = Result_graph.build q g empty in
  Alcotest.(check int) "no nodes" 0 (Result_graph.node_count gr);
  Alcotest.(check int) "no edges" 0 (Result_graph.edge_count gr)

let test_result_graph_roles () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let m = Bounded_sim.run q g in
  let gr = Result_graph.build q g m in
  let bill = snd Expfinder_workload.Collab.e1 in
  let roles v =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun (d : Result_graph.detail) -> if d.data_node = v then Some u else None)
          (Result_graph.drill_down q g gr u))
      (List.init (Pattern.size q) Fun.id)
  in
  Alcotest.(check (list int)) "Bob matches SA" [ 0 ] (roles Expfinder_workload.Collab.bob);
  Alcotest.(check (list int)) "unmatched node has no roles" [] (roles bill);
  Alcotest.(check bool) "mem" true (Result_graph.index_of gr Expfinder_workload.Collab.eva <> None);
  Alcotest.(check bool) "not mem" false (Result_graph.index_of gr bill <> None);
  let dot = Result_graph.to_dot q g ~highlight:[ Expfinder_workload.Collab.bob ] gr in
  Alcotest.(check bool) "dot nonempty" true (String.length dot > 40)

let test_result_graph_dot_escapes () =
  (* Names, roles and labels may hold any character; the DOT text must
     still parse: every quote inside a label escaped, one statement a
     line. *)
  let la = Label.of_string "A\"x" and lb = Label.of_string "B" in
  let name s i = if i = 0 then Attrs.of_list [ ("name", Attr.String s) ] else Attrs.empty in
  let g =
    Snapshot.of_digraph
      (Testkit.of_edges ~attrs:(name "O\"Brien\\\nJr") ~labels:[| la; lb |] [ (0, 1) ])
  in
  let node name label = { Pattern.name; label = Some label; pred = Predicate.always } in
  let q =
    Pattern.make_exn
      ~nodes:[| node "R\"1" la; node "R2" lb |]
      ~edges:[ (0, 1, Pattern.Bounded 1) ]
      ~output:0
  in
  let dot = Result_graph.to_dot q g (Result_graph.build q g (Bounded_sim.run q g)) in
  let lines = String.split_on_char '\n' dot in
  Alcotest.(check bool) "escaped label" true
    (List.mem {|  r0 [label="O\"Brien\\\nJr\n(R\"1:A\"x)"];|} lines);
  (* Outside escapes, each line opens and closes its quotes. *)
  List.iter
    (fun line ->
      let quotes = ref 0 and i = ref 0 in
      while !i < String.length line do
        (match line.[!i] with '\\' -> incr i | '"' -> incr quotes | _ -> ());
        incr i
      done;
      if !quotes mod 2 <> 0 then Alcotest.failf "unbalanced quotes: %s" line)
    lines

let test_rank_isolated_node_infinite () =
  (* A pattern with one node: result graph has no edges, every rank is
     infinite, and top-k falls back to node-id order. *)
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let nodes =
    [| { Pattern.name = "SA"; label = Some (Label.of_string "SA"); pred = Predicate.always } |]
  in
  let p = Pattern.make_exn ~nodes ~edges:[] ~output:0 in
  let m = Simulation.run p g in
  let gr = Result_graph.build p g m in
  let r = Ranking.rank_of gr Expfinder_workload.Collab.bob in
  Alcotest.(check bool) "infinite" true (r.Ranking.den = 0);
  Alcotest.(check bool) "inf = inf" true (Ranking.compare_rank r r = 0);
  Alcotest.(check bool) "inf to float" true (Ranking.rank_to_float r = infinity);
  match Ranking.top_k gr ~output_matches:(Match_relation.matches m 0) ~k:2 with
  | [ (first, _); (second, _) ] ->
    Alcotest.(check int) "tie broken by id" Expfinder_workload.Collab.walt first;
    Alcotest.(check int) "second" Expfinder_workload.Collab.bob second
  | _ -> Alcotest.fail "expected two"

let test_rank_compare () =
  let open Ranking in
  Alcotest.(check bool) "9/5 < 7/3" true (compare_rank { num = 9; den = 5 } { num = 7; den = 3 } < 0);
  Alcotest.(check bool) "equal cross" true (compare_rank { num = 1; den = 2 } { num = 2; den = 4 } = 0);
  Alcotest.(check bool) "finite < inf" true (compare_rank { num = 100; den = 1 } { num = 0; den = 0 } < 0)

let test_top_k_sizes () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let m = Bounded_sim.run q g in
  let gr = Result_graph.build q g m in
  let matches = Match_relation.matches m 0 in
  Alcotest.(check int) "k=0" 0 (List.length (Ranking.top_k gr ~output_matches:matches ~k:0));
  Alcotest.(check int) "k=1" 1 (List.length (Ranking.top_k gr ~output_matches:matches ~k:1));
  Alcotest.(check int) "k larger than matches" 2
    (List.length (Ranking.top_k gr ~output_matches:matches ~k:10));
  Alcotest.check_raises "k<0" (Invalid_argument "Ranking.top_k") (fun () ->
      ignore (Ranking.top_k gr ~output_matches:matches ~k:(-1)))

let prop_result_graph_weights_within_bounds seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:false in
  let m = Bounded_sim.run pattern g in
  let gr = Result_graph.build pattern g m in
  let max_bound = Option.value ~default:1 (Pattern.max_bound pattern) in
  List.for_all (fun (_, _, d) -> d >= 1 && d <= max_bound) (snd (gr_edges m gr))

(* Shortest nonempty path length from [v] to [w] by a plain BFS, [-1]
   when [w] is unreachable. *)
let pair_dist g v w =
  let dist = Array.make (Snapshot.node_count g) (-1) in
  let queue = Queue.create () in
  let visit d x =
    if dist.(x) < 0 then begin
      dist.(x) <- d;
      Queue.add x queue
    end
  in
  Snapshot.iter_succ g v (visit 1);
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    Snapshot.iter_succ g x (visit (dist.(x) + 1))
  done;
  dist.(w)

(* One random instance of [result graph = definition]: bounded and [*]
   edges, on labels shared by several pattern nodes. *)
let result_graph_instance seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern = random_pattern rng ~simulation:false ~unbounded:true in
  let m = Bounded_sim.run pattern g in
  (pattern, g, m, Result_graph.build pattern g m)

(* Gr from the paper's definition: the matched nodes, and one edge
   [(v, w, dist v w)] per pair with [0 < dist <= k] for some pattern edge
   [(u, u', k)], [v ∈ sim(u)], [w ∈ sim(u')]. *)
let result_graph_reference pattern g m =
  let nodes = List.sort_uniq compare (List.map snd (Match_relation.pairs m)) in
  let witnessed v w d =
    List.exists
      (fun (u, u', b) ->
        Match_relation.mem m u v && Match_relation.mem m u' w
        && match b with Pattern.Bounded k -> d <= k | Pattern.Unbounded -> true)
      (Pattern.edges pattern)
  in
  let edges =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun w ->
            let d = pair_dist g v w in
            if d > 0 && witnessed v w d then Some (v, w, d) else None)
          nodes)
      nodes
  in
  (nodes, edges)

let prop_result_graph_definition seed =
  let pattern, g, m, gr = result_graph_instance seed in
  let nodes, edges = result_graph_reference pattern g m in
  let in_gr =
    List.filter
      (fun v -> Result_graph.index_of gr v <> None)
      (List.init (Snapshot.node_count g) Fun.id)
  in
  let _, got_edges = gr_edges m gr in
  let of_index = Array.make (Result_graph.node_count gr) (-1) in
  List.iter (fun v -> of_index.(Option.get (Result_graph.index_of gr v)) <- v) in_gr;
  let bwd = Result_graph.backward gr in
  let reversed =
    List.concat
      (List.init (Result_graph.node_count gr) (fun i ->
           List.init
             (bwd.offsets.(i + 1) - bwd.offsets.(i))
             (fun p ->
               let p = bwd.offsets.(i) + p in
               (of_index.(bwd.targets.(p)), of_index.(i), bwd.weights.(p)))))
  in
  in_gr = nodes
  && List.sort compare got_edges = edges
  && List.sort compare reversed = edges

let test_result_graph_definition_covers () =
  (* The seeds [result graph = definition] draws from reach every case
     it is meant to pin down. *)
  let unbounded = ref 0 and beyond = ref 0 and roles = ref 0 and cycles = ref 0 in
  for seed = 1 to 300 do
    let pattern, _, m, gr = result_graph_instance seed in
    let _, edges = gr_edges m gr in
    let nroles v = List.length (List.filter (fun (_, v') -> v' = v) (Match_relation.pairs m)) in
    if edges <> [] && Pattern.has_unbounded_edge pattern then incr unbounded;
    if List.exists (fun (_, _, d) -> d > 3) edges then incr beyond;
    if List.exists (fun (v, _, _) -> nroles v > 1) edges then incr roles;
    if List.exists (fun (v, w, _) -> v = w) edges then incr cycles
  done;
  List.iter
    (fun (what, n) -> if n = 0 then Alcotest.failf "no instance with %s" what)
    [
      ("a * edge", !unbounded);
      ("an edge longer than every bound", !beyond);
      ("a node of several roles", !roles);
      ("a self edge", !cycles);
    ]

let test_result_graph_duplicate_pair () =
  (* Both pattern edges A->B (bound 1) and A->B' (bound 2) are witnessed
     by the data pair (a, b): directly, and within bound 2 also by the
     longer path a -> x -> b.  Gr keeps one edge carrying the minimum
     witness distance, in both directions. *)
  let la = Label.of_string "A" and lb = Label.of_string "B" and lx = Label.of_string "X" in
  let g =
    Snapshot.of_digraph (Testkit.of_edges ~labels:[| la; lb; lx |] [ (0, 1); (0, 2); (2, 1) ])
  in
  let node name label = { Pattern.name; label = Some label; pred = Predicate.always } in
  let q =
    Pattern.make_exn
      ~nodes:[| node "A" la; node "B" lb; node "B'" lb |]
      ~edges:[ (0, 1, Pattern.Bounded 1); (0, 2, Pattern.Bounded 2) ]
      ~output:0
  in
  let m = Bounded_sim.run q g in
  let gr = Result_graph.build q g m in
  Alcotest.(check int) "one edge" 1 (Result_graph.edge_count gr);
  Alcotest.(check (list (triple int int int)))
    "minimum weight, no reverse edge" [ (0, 1, 1) ] (snd (gr_edges m gr));
  match Result_graph.drill_down q g gr 1 with
  | [ b ] ->
    Alcotest.(check (list (pair int int))) "one in-edge" [ (0, 1) ] b.Result_graph.in_edges
  | _ -> Alcotest.fail "expected b alone"

(* --- ranking oracle ------------------------------------------------------ *)

(* Bellman-Ford over an explicit weighted edge list: shortest distances
   from [src] on nodes [0 .. n-1], [-1] when unreachable.  Rounds stop
   once one changes nothing. *)
let bellman_ford n edges src =
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (u, v, w) ->
        if dist.(u) < max_int && dist.(u) + w < dist.(v) then begin
          dist.(v) <- dist.(u) + w;
          changed := true
        end)
      edges
  done;
  Array.map (fun d -> if d = max_int then -1 else d) dist

(* f(u_o, v) straight from the paper's definition, over all-pairs
   Bellman-Ford distances on Gr's edge list: the average distance to
   every ancestor plus every descendant of [v], a node counting once per
   direction it connects in. *)
let reference_ranks m gr =
  let nodes, gr_edges = gr_edges m gr in
  let nodes = Array.of_list nodes in
  let n = Array.length nodes in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) nodes;
  let edges = List.map (fun (v, v', d) -> (Hashtbl.find pos v, Hashtbl.find pos v', d)) gr_edges in
  let edges = ref edges in
  let rev = List.map (fun (u, v, d) -> (v, u, d)) !edges in
  let ranks = Hashtbl.create 16 in
  Array.iteri
    (fun i v ->
      let from_v = bellman_ford n !edges i and to_v = bellman_ford n rev i in
      let num = ref 0 and den = ref 0 in
      for j = 0 to n - 1 do
        if j <> i then
          List.iter
            (fun d ->
              if d >= 0 then begin
                num := !num + d;
                incr den
              end)
            [ from_v.(j); to_v.(j) ]
      done;
      Hashtbl.replace ranks v { Ranking.num = !num; den = !den })
    nodes;
  ranks

let prop_ranking_matches_reference seed =
  let rng = Prng.create seed in
  let g = Snapshot.of_digraph (random_graph rng) in
  let pattern =
    match seed mod 3 with
    | 0 -> random_pattern rng ~simulation:true ~unbounded:false
    | 1 -> random_pattern rng ~simulation:false ~unbounded:false
    | _ -> random_pattern rng ~simulation:false ~unbounded:true
  in
  let m = Bounded_sim.run pattern g in
  let gr = Result_graph.build pattern g m in
  let ranks = reference_ranks m gr in
  (* Shuffled, so a match ranked late can tie the K-th best rank with a
     smaller id. *)
  let shuffled = Array.of_list (Match_relation.matches m (Pattern.output pattern)) in
  Prng.shuffle rng shuffled;
  let output_matches = Array.to_list shuffled in
  let sorted =
    List.sort
      (fun (v1, r1) (v2, r2) ->
        let c = Ranking.compare_rank r1 r2 in
        if c <> 0 then c else compare v1 v2)
      (List.map (fun v -> (v, Hashtbl.find ranks v)) output_matches)
  in
  let size = List.length output_matches in
  List.for_all
    (fun k ->
      Ranking.top_k gr ~output_matches ~k = List.filteri (fun i _ -> i < k) sorted)
    [ 0; 1; 2; size; size + 3 ]
  && List.for_all
       (fun v -> Ranking.rank_of gr v = Hashtbl.find ranks v)
       (fst (gr_edges m gr))

(* More output matches than two lane words hold (Sys.int_size each), so
   later batches are ranked against the bound the earlier ones leave.
   The pattern is A -[2..3]-> B -[2..3]-> A, output A; a random core of
   A and B nodes is joined directly and through unlabelled X nodes.
   Planted beside it: [pairs] two-cycles a <-> b (rank 2/2, so the K-th
   rank is a tie decided by id at k = 1) and [far] cycles
   a -> x -> b -> y -> a (rank 4/2, the tie at k = 10).  A far match
   settles nothing at distance 1, so after level 1 its lane reads 0/0,
   which must not count as reaching the bound; one of them is moved past
   the first word of the shuffled matches. *)
let prop_ranking_many_lanes seed =
  let rng = Prng.create seed in
  let core = 130 + Prng.int rng 40 and bs = 30 + Prng.int rng 20 and xs = 30 + Prng.int rng 20 in
  let pairs = 4 + Prng.int rng 5 and far = 6 + Prng.int rng 5 in
  let random = core + bs + xs in
  let n = random + (2 * pairs) + (4 * far) in
  (* Roles by position; node ids are a random permutation of positions. *)
  let id = Array.init n Fun.id in
  Prng.shuffle rng id;
  let la = Label.of_string "A" and lb = Label.of_string "B" and lx = Label.of_string "X" in
  let labels = Array.make n lx in
  let edges = ref [] in
  let edge p q = edges := (id.(p), id.(q)) :: !edges in
  for p = 0 to core - 1 do
    labels.(id.(p)) <- la;
    edge p (core + Prng.int rng bs);
    edge p (Prng.int rng random)
  done;
  for p = core to core + bs - 1 do
    labels.(id.(p)) <- lb;
    edge p (Prng.int rng core);
    edge p (Prng.int rng random)
  done;
  for p = core + bs to random - 1 do
    edge p (Prng.int rng random)
  done;
  for i = 0 to pairs - 1 do
    let a = random + (2 * i) in
    labels.(id.(a)) <- la;
    labels.(id.(a + 1)) <- lb;
    edge a (a + 1);
    edge (a + 1) a
  done;
  let far_a = List.init far (fun i -> random + (2 * pairs) + (4 * i)) in
  List.iter
    (fun a ->
      labels.(id.(a)) <- la;
      labels.(id.(a + 2)) <- lb;
      edge a (a + 1);
      edge (a + 1) (a + 2);
      edge (a + 2) (a + 3);
      edge (a + 3) a)
    far_a;
  let g = Snapshot.of_digraph (Testkit.of_edges ~labels !edges) in
  let node name label = { Pattern.name; label = Some label; pred = Predicate.always } in
  let pattern =
    Pattern.make_exn
      ~nodes:[| node "A" la; node "B" lb |]
      ~edges:
        [
          (0, 1, Pattern.Bounded (2 + Prng.int rng 2));
          (1, 0, Pattern.Bounded (2 + Prng.int rng 2));
        ]
      ~output:0
  in
  let m = Bounded_sim.run pattern g in
  let gr = Result_graph.build pattern g m in
  let ranks = reference_ranks m gr in
  let shuffled = Array.of_list (Match_relation.matches m 0) in
  Prng.shuffle rng shuffled;
  let size = Array.length shuffled in
  let far_id = id.(List.hd far_a) in
  Array.iteri
    (fun i v ->
      if v = far_id && i < Sys.int_size then begin
        shuffled.(i) <- shuffled.(size - 1);
        shuffled.(size - 1) <- v
      end)
    (Array.copy shuffled);
  let output_matches = Array.to_list shuffled in
  let sorted =
    List.sort
      (fun (v1, r1) (v2, r2) ->
        let c = Ranking.compare_rank r1 r2 in
        if c <> 0 then c else compare v1 v2)
      (List.map (fun v -> (v, Hashtbl.find ranks v)) output_matches)
  in
  size > 2 * Sys.int_size
  && List.for_all (fun a -> Hashtbl.find ranks id.(a) = { Ranking.num = 4; den = 2 }) far_a
  && List.for_all
       (fun k -> Ranking.top_k gr ~output_matches ~k = List.filteri (fun i _ -> i < k) sorted)
       [ 0; 1; 10; 62; 63; 64; size ]

(* --- roll-up / drill-down ---------------------------------------------- *)

let fig1_result_graph () =
  let g = Snapshot.of_digraph (Expfinder_workload.Collab.graph ()) in
  let q = Expfinder_workload.Collab.query () in
  let m = Bounded_sim.run q g in
  (g, q, Result_graph.build q g m)

let test_roll_up () =
  let _, q, gr = fig1_result_graph () in
  let s = Result_graph.roll_up q gr in
  Alcotest.(check (list int)) "match counts" [ 2; 3; 1; 1 ]
    (Array.to_list s.Result_graph.match_counts);
  let stats_for u u' =
    List.find
      (fun e -> e.Result_graph.source = u && e.Result_graph.target = u')
      s.Result_graph.edge_summaries
  in
  let sa_sd = stats_for 0 1 in
  Alcotest.(check int) "SA->SD realised" 3 sa_sd.Result_graph.realised;
  Alcotest.(check int) "SA->SD min" 1 sa_sd.Result_graph.min_dist;
  let sa_ba = stats_for 0 2 in
  Alcotest.(check int) "SA->BA realised" 2 sa_ba.Result_graph.realised;
  Alcotest.(check int) "SA->BA min" 3 sa_ba.Result_graph.min_dist;
  let st_ba = stats_for 3 2 in
  Alcotest.(check int) "ST->BA realised" 1 st_ba.Result_graph.realised;
  (* Rendering succeeds and is non-trivial. *)
  let text = Format.asprintf "%a" (Result_graph.pp_summary q) s in
  Alcotest.(check bool) "summary renders" true (String.length text > 50)

let test_drill_down () =
  let g, q, gr = fig1_result_graph () in
  let details = Result_graph.drill_down q g gr 0 in
  (match details with
  | [ walt; bob ] ->
    Alcotest.(check string) "Walt first" "Walt" walt.Result_graph.display;
    Alcotest.(check string) "then Bob" "Bob" bob.Result_graph.display;
    Alcotest.(check (list (pair int int)))
      "Bob's result successors"
      [ (Expfinder_workload.Collab.jean, 3); (Expfinder_workload.Collab.dan, 1);
        (Expfinder_workload.Collab.pat, 2) ]
      (List.sort compare bob.Result_graph.out_edges)
  | _ -> Alcotest.fail "expected exactly Walt and Bob");
  Alcotest.check_raises "bad pattern node" (Invalid_argument "Result_graph.drill_down")
    (fun () -> ignore (Result_graph.drill_down q g gr 9))

(* --- answer digest ------------------------------------------------------- *)

(* The list-based renderer [Match_relation.digest] used before it wrote
   straight from the bitsets: the reference for its byte format. *)
let reference_digest m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int (Match_relation.pattern_size m));
  for u = 0 to Match_relation.pattern_size m - 1 do
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int u);
    List.iter
      (fun v ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int v))
      (Match_relation.matches m u)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Pattern sizes 1-8; graph sizes on both sides of a 63-bit word
   boundary and past 10^4 (five-digit ids); rows that are empty, sparse,
   dense, or hold the last id. *)
let prop_digest_matches_reference seed =
  let rng = Prng.create seed in
  let pattern_size = Prng.int_in rng 1 8 in
  let graph_size =
    Prng.choose rng [| 1; 2; 62; 63; 64; 125; 126; 127; 189; 190; 9_999; 10_000; 10_064 |]
  in
  let m = Match_relation.create ~pattern_size ~graph_size in
  for u = 0 to pattern_size - 1 do
    match Prng.int rng 4 with
    | 0 -> ()
    | 1 -> Match_relation.add m u (graph_size - 1)
    | k ->
      let adds = if k = 2 then Prng.int rng 8 else Prng.int rng (2 * graph_size) in
      for _ = 1 to adds do
        Match_relation.add m u (Prng.int rng graph_size)
      done
  done;
  Match_relation.digest m = reference_digest m

(* A chain of [n] A-nodes and the pattern A0 -[k]-> A1 -[k]-> A0 on
   it: the matches empty from the chain's end, one pop per node, and no
   charge exceeds [k]. *)
let chain_graph n =
  let a = Label.of_string "A" in
  Snapshot.of_digraph
    (Testkit.of_edges ~labels:(Array.make n a) (List.init (n - 1) (fun i -> (i, i + 1))))

let chain_pattern k =
  let spec name = { Pattern.name; label = Some (Label.of_string "A"); pred = Predicate.always } in
  Pattern.make_exn
    ~nodes:[| spec "A0"; spec "A1" |]
    ~edges:[ (0, 1, Pattern.Bounded k); (1, 0, Pattern.Bounded k) ]
    ~output:0

(* A meter with a limit stops a kernel part-way: the charge that passes
   the limit raises, so the meter ends at most one charge past it. *)
let test_work_limit_stops_kernel () =
  let n = 200 in
  let g = chain_graph n and pattern = chain_pattern in
  List.iter
    (fun (name, k, run) ->
      let full = Work.create () in
      let kernel = run ~work:full (pattern k) g in
      Alcotest.(check bool) (name ^ ": chain empties") true (Match_relation.total kernel = 0);
      let limit = Work.spent full - (n / 2) in
      let work = Work.create ~limit () in
      (match run ~work (pattern k) g with
      | _ -> Alcotest.fail (name ^ ": reached its fixpoint past the limit")
      | exception Work.Exhausted -> ());
      Alcotest.(check bool)
        (Printf.sprintf "%s: spent %d within one charge of limit %d" name (Work.spent work) limit)
        true
        (Work.spent work > limit && Work.spent work <= limit + k))
    [
      ("simulation", 1, fun ~work p g -> Simulation.run ~work p g);
      ("bounded", 2, fun ~work p g -> Bounded_sim.run ~work p g);
    ]

(* A refinement that its meter stops still reports the balls it
   searched: at least one per [k] visits charged, as no ball on the
   chain visits more than [k] nodes. *)
let test_stopped_refinement_counts_balls () =
  let balls () =
    Option.value ~default:0
      (List.assoc_opt "bsim.ball_expansions"
         (Expfinder_telemetry.Metrics.counters_snapshot ()))
  in
  let k = 2 in
  let before = balls () and work = Work.create ~limit:50 () in
  (match Bounded_sim.run ~work (chain_pattern k) (chain_graph 200) with
  | _ -> Alcotest.fail "reached its fixpoint past the limit"
  | exception Work.Exhausted -> ());
  let moved = balls () - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d balls for %d visits" moved (Work.spent work))
    true
    (moved * k >= Work.spent work)

let qcheck_cases =
  [
    QCheck.Test.make ~count:100 ~name:"simulation = reference" QCheck.small_int (fun s ->
        prop_simulation_matches_reference (s + 1));
    QCheck.Test.make ~count:100 ~name:"bsim counters = reference" QCheck.small_int (fun s ->
        prop_bsim_matches_reference ~unbounded:false (s + 1));
    QCheck.Test.make ~count:60 ~name:"bsim unbounded = reference" QCheck.small_int
      (fun s -> prop_bsim_matches_reference ~unbounded:true (s + 1));
    QCheck.Test.make ~count:60 ~name:"bsim strategies agree" QCheck.small_int (fun s ->
        prop_bsim_strategies_agree (s + 1));
    QCheck.Test.make ~count:200 ~name:"bsim = reference (hub, frozen)"
      QCheck.small_int (fun s -> prop_witness_matches_oracle (s + 1));
    QCheck.Test.make ~count:60 ~name:"bound-1 bsim = simulation" QCheck.small_int (fun s ->
        prop_bound1_equals_simulation (s + 1));
    QCheck.Test.make ~count:60 ~name:"kernel is consistent" QCheck.small_int (fun s ->
        prop_kernel_consistent (s + 1));
    QCheck.Test.make ~count:60 ~name:"relaxing bounds grows matches" QCheck.small_int
      (fun s -> prop_relaxing_bounds_grows_matches (s + 1));
    QCheck.Test.make ~count:60 ~name:"result-graph weights within bounds" QCheck.small_int
      (fun s -> prop_result_graph_weights_within_bounds (s + 1));
    QCheck.Test.make ~count:300 ~name:"result graph = definition"
      QCheck.(int_range 1 1_000_000) prop_result_graph_definition;
    (* Wide seeds: a tie at the K-th rank decided by id shows up in
       about one instance in forty. *)
    QCheck.Test.make ~count:500 ~name:"top_k/rank_of = Bellman-Ford reference"
      QCheck.(int_range 1 1_000_000) prop_ranking_matches_reference;
    QCheck.Test.make ~count:50 ~name:"top_k over three lane words = reference"
      QCheck.(int_range 1 1_000_000) prop_ranking_many_lanes;
    QCheck.Test.make ~count:300 ~name:"digest = list-based reference renderer"
      QCheck.(int_range 1 1_000_000) prop_digest_matches_reference;
  ]

let () =
  Alcotest.run "core"
    [
      ( "match_relation",
        [
          Alcotest.test_case "operations" `Quick test_match_relation_ops;
          Alcotest.test_case "candidates" `Quick test_candidates_respect_predicates;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "no match" `Quick test_no_match_is_untotal;
          Alcotest.test_case "single node" `Quick test_single_node_pattern;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
        ] );
      ( "result_graph",
        [
          Alcotest.test_case "empty relation" `Quick test_result_graph_empty_relation;
          Alcotest.test_case "roles" `Quick test_result_graph_roles;
          Alcotest.test_case "duplicate pair keeps min weight" `Quick
            test_result_graph_duplicate_pair;
          Alcotest.test_case "definition property covers its cases" `Quick
            test_result_graph_definition_covers;
          Alcotest.test_case "dot escapes labels" `Quick test_result_graph_dot_escapes;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "isolated = infinite" `Quick test_rank_isolated_node_infinite;
          Alcotest.test_case "compare" `Quick test_rank_compare;
          Alcotest.test_case "top-k sizes" `Quick test_top_k_sizes;
        ] );
      ( "views",
        [
          Alcotest.test_case "roll up" `Quick test_roll_up;
          Alcotest.test_case "drill down" `Quick test_drill_down;
        ] );
      ( "work",
        [
          Alcotest.test_case "limit stops a kernel" `Quick test_work_limit_stops_kernel;
          Alcotest.test_case "stopped refinement counts its balls" `Quick
            test_stopped_refinement_counts_balls;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
