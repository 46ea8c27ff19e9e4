open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_telemetry

let m_syncs = Metrics.counter "incremental.syncs"

(* Syncs that ended in a dense recomputation, by route or by abort. *)
let m_floods = Metrics.counter "incremental.floods"

let m_area = Metrics.counter "incremental.area_nodes"

let m_rounds = Metrics.counter "incremental.rounds"

let m_added = Metrics.counter "incremental.pairs_added"

let m_removed = Metrics.counter "incremental.pairs_removed"

let src = Logs.Src.create "expfinder.incremental" ~doc:"incremental match maintenance"

module Log = (val Logs.src_log src : Logs.LOG)

module DDist = Distance.Make (Digraph)
module DRefine = Sparse_refine.Make (Digraph)

type area_strategy = Ball_closure | Ancestors

(* A sparse attempt: the work it spent after seeding, its seeded area,
   and whether it reached the fixpoint (otherwise the work is a lower
   bound). *)
type attempt = { rest_work : int; seed_area : int; completed : bool }

type t = {
  pattern : Pattern.t;
  strategy : area_strategy;
  g : Digraph.t;
  mutable expected_version : int;
  mutable kernel : Match_relation.t;
  mutable scratch : DDist.scratch;
  mutable scratch_n : int;
  mutable price : int; (* work of the last dense evaluation, CSR build excluded *)
  mutable recent : attempt list; (* the last two sparse attempts, newest first *)
}

type report = {
  effective : int;
  area : int;
  iterations : int;
  added : (int * int) list;
  removed : (int * int) list;
}

(* The sparse engines pay more per unit of work than the dense ones:
   hashtable counters instead of arrays, and adjacency read from the
   live digraph instead of a CSR.  One sparse unit (a BFS visit or an
   adjacency entry scanned on the digraph) costs this many dense units;
   measured in DESIGN.md §Incremental. *)
let sparse_unit_cost = 2

(* A dense evaluation and its work. *)
let evaluate_dense pattern snap =
  let work = Work.create () in
  let kernel =
    if Pattern.is_simulation_pattern pattern then Simulation.run ~work pattern snap
    else Bounded_sim.run ~work pattern snap
  in
  (kernel, Work.spent work)

let refresh_scratch t =
  if Digraph.node_count t.g > t.scratch_n then begin
    t.scratch <- DDist.make_scratch t.g;
    t.scratch_n <- Digraph.node_count t.g
  end

(* Recompute on [snap], a snapshot of the tracked graph at its current
   version; the work becomes the price of the next recompute. *)
let recompute_on t snap =
  let kernel, price = evaluate_dense t.pattern snap in
  t.kernel <- kernel;
  t.price <- price;
  t.expected_version <- Digraph.version t.g;
  refresh_scratch t

let create ?(area_strategy = Ball_closure) pattern g =
  let kernel, price = evaluate_dense pattern (Snapshot.of_digraph g) in
  {
    pattern;
    strategy = area_strategy;
    g;
    expected_version = Digraph.version g;
    kernel;
    scratch = DDist.make_scratch g;
    scratch_n = Digraph.node_count g;
    price;
    recent = [];
  }

let pattern t = t.pattern

let kernel t = t.kernel

let result_pairs t =
  if Match_relation.is_total t.kernel then Match_relation.pairs t.kernel else []

let digraph t = t.g

let version t = t.expected_version

let snapshot t = Snapshot.of_digraph t.g

let recompute t = recompute_on t (Snapshot.of_digraph t.g)

let resize_kernel kernel ~pattern_size ~new_n =
  if Match_relation.graph_size kernel = new_n then Match_relation.copy kernel
  else
    Match_relation.of_pairs ~pattern_size ~graph_size:new_n (Match_relation.pairs kernel)

(* The pairs [after] adds to and removes from [before], each list ordered
   by pattern node, then data node.  [iter_nodes] must visit, in
   ascending order, every data node whose pairs may differ. *)
let diff_relations ~iter_nodes before after =
  let added = ref [] and removed = ref [] in
  for u = Match_relation.pattern_size after - 1 downto 0 do
    let a = ref [] and r = ref [] in
    iter_nodes (fun v ->
        match (Match_relation.mem before u v, Match_relation.mem after u v) with
        | false, true -> a := (u, v) :: !a
        | true, false -> r := (u, v) :: !r
        | _ -> ());
    added := List.rev_append !a !added;
    removed := List.rev_append !r !removed
  done;
  (!added, !removed)

let is_candidate pattern g v =
  let label = Digraph.label g v and attrs = Digraph.attrs g v in
  let rec loop u =
    u < Pattern.size pattern && (Pattern.matches_node pattern u label attrs || loop (u + 1))
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Old-graph traversal without an old-graph snapshot: the pre-batch     *)
(* graph is the live graph minus the net-inserted edges plus the        *)
(* net-deleted ones, so a reverse walk can patch predecessor lists on   *)
(* the fly.                                                             *)
(* ------------------------------------------------------------------ *)

type patch = {
  net_inserted : (int * int, unit) Hashtbl.t;
  deleted_into : (int, int) Hashtbl.t; (* target -> each net-deleted source *)
}

let make_patch g effective =
  let inserted, deleted = Update.net_edge_changes g effective in
  let net_inserted = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.replace net_inserted (a, b) ()) inserted;
  let deleted_into = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.add deleted_into b a) deleted;
  ({ net_inserted; deleted_into }, inserted, deleted)

let iter_pred_old g patch x f =
  Digraph.iter_pred g x (fun p -> if not (Hashtbl.mem patch.net_inserted (p, x)) then f p);
  List.iter f (Hashtbl.find_all patch.deleted_into x)

(* Bounded reverse BFS on the patched old graph.  Areas are small, so a
   hashtable-based visited set is fine. *)
let old_reverse_ball g patch src k f =
  if k > 0 then begin
    let dist = Hashtbl.create 64 in
    let queue = Queue.create () in
    let push w d =
      if not (Hashtbl.mem dist w) then begin
        Hashtbl.replace dist w d;
        Queue.add w queue
      end
    in
    iter_pred_old g patch src (fun p -> push p 1);
    while not (Queue.is_empty queue) do
      let w = Queue.pop queue in
      let d = Hashtbl.find dist w in
      f w d;
      if d < k then iter_pred_old g patch w (fun p -> push p (d + 1))
    done
  end

let old_ancestors g patch srcs f =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push w =
    if not (Hashtbl.mem seen w) then begin
      Hashtbl.replace seen w ();
      Queue.add w queue
    end
  in
  List.iter push srcs;
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    f w;
    iter_pred_old g patch w push
  done

let new_ancestors g srcs f =
  let n = Digraph.node_count g in
  let seen = Bitset.create n in
  let queue = Queue.create () in
  let push w =
    if not (Bitset.mem seen w) then begin
      Bitset.add seen w;
      Queue.add w queue
    end
  in
  List.iter push srcs;
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    f w;
    Digraph.iter_pred g w push
  done

(* ------------------------------------------------------------------ *)
(* Maintenance                                                          *)
(* ------------------------------------------------------------------ *)

let refine_over_area ~work pattern g old_kernel area =
  let psize = Pattern.size pattern in
  let initial = Match_relation.copy old_kernel in
  Bitset.iter
    (fun v ->
      for u = 0 to psize - 1 do
        if Pattern.matches_node pattern u (Digraph.label g v) (Digraph.attrs g v) then
          Match_relation.add initial u v
        else Match_relation.remove initial u v
      done)
    area;
  if Pattern.is_simulation_pattern pattern then
    DRefine.simulation ~work pattern g ~initial ~area
  else DRefine.bounded ~work pattern g ~initial ~area

(* How a sync kept the kernel up to date. *)
type route =
  | Sparse (* the area refinement ran to its fixpoint *)
  | Recompute (* predicted dearer than a dense run, so recomputed at once *)
  | Aborted (* spent more than a dense run mid-way, then recomputed *)

let route_name = function Sparse -> "sparse" | Recompute -> "recompute" | Aborted -> "aborted"

(* How a ball-closure sync ended. *)
type closure =
  | Closed of { kernel : Match_relation.t; area : Bitset.t; rounds : int }
  | Dearer (* the prediction passed the budget: no refinement ran *)
  | Abandoned (* the work passed the budget during refinement *)

(* Change-driven maintenance (the shape of the SIGMOD'11 algorithms):

   1. seed the area with the candidates whose dependency ball could have
      changed — within [kmax - 1] hops upstream of a net-inserted edge's
      source in the new graph, or of a net-deleted edge's source in the
      (patched) old graph;
   2. refine over the area with the rest frozen;
   3. a node whose membership actually changed can influence candidates
      within [kmax] upstream of it — in the new graph for additions, in
      the old graph for removals; pull those in and repeat until no
      membership change escapes the area.

   At the fixpoint every frozen pair is justified, so the result is
   exactly M(Q, G ⊕ ΔG).

   Incremental (bounded) simulation is unbounded in the worst case
   (SIGMOD'11), so the whole sync runs on [work], whose limit is the
   price of a dense recompute.  Seeding (step 1) is BFS only; its work
   and area predict the rest.  A prediction above the limit ends the
   sync before the group search and refinement start; otherwise they run
   until the fixpoint or until the meter passes the limit.  Returns the
   outcome and the prediction. *)
let sync_ball_closure t ~old_kernel ~old_n ~patch ~inserted ~deleted ~work =
  let g = t.g in
  let pattern = t.pattern in
  let psize = Pattern.size pattern in
  let new_n = Digraph.node_count g in
  let kmax = Option.value ~default:1 (Pattern.max_bound pattern) in
  let area = Bitset.create new_n in
  let charged = ref (DDist.visits t.scratch) in
  let charge_visits () =
    let visits = DDist.visits t.scratch in
    Work.charge work (visits - !charged);
    charged := visits
  in
  (* A node is "uncertain" when it could still join the kernel: it
     qualifies for some pattern node it does not yet match.  Uncertain
     area nodes pull their potential witnesses (forward ball) into the
     area as well — without this, a mutually supporting group of new
     matches (e.g. an inserted edge closing a cycle) is never
     discovered, since no member can join while the others are frozen
     out. *)
  let uncertain v =
    let label = Digraph.label g v and attrs = Digraph.attrs g v in
    let rec loop u =
      u < psize
      && ((Pattern.matches_node pattern u label attrs
          && not (Match_relation.mem old_kernel u v))
         || loop (u + 1))
    in
    loop 0
  in
  (* Plain inclusion: the node's membership will be re-derived, but no
     group search starts from it. *)
  let consider v =
    if (not (Bitset.mem area v)) && is_candidate pattern g v then Bitset.add area v
  in
  (* Inclusion with forward expansion: an uncertain node here may belong
     to an insertion-enabled mutual group, whose other members lie in its
     forward dependency balls. *)
  let pending = Queue.create () in
  let consider_expanding v =
    if is_candidate pattern g v && not (Bitset.mem area v) then begin
      Bitset.add area v;
      Queue.add v pending
    end
  in
  let drain_forward () =
    while not (Queue.is_empty pending) do
      let v = Queue.pop pending in
      if uncertain v then begin
        DDist.ball t.scratch g v kmax (fun w _ -> consider_expanding w);
        charge_visits ()
      end
    done
  in
  (* Seeds: dependency balls that can contain a changed edge.  Insertions
     can create matches — including mutually supporting groups, which
     must contain either a seed (the inserted edge lies in its ball) or a
     node downstream of the edge's target — so insertion seeds expand
     forward (in [drain_forward], the first step of the sparse path).
     Deletions only remove matches; removal cascades are well-founded
     and handled by the backward growth alone. *)
  let seed () =
    List.iter
      (fun (a, b) ->
        consider_expanding a;
        consider_expanding b;
        if kmax > 1 then begin
          DDist.reverse_ball t.scratch g a (kmax - 1) (fun v _ -> consider_expanding v);
          charge_visits ()
        end)
      inserted;
    List.iter
      (fun (a, _) ->
        consider a;
        if kmax > 1 then
          old_reverse_ball g patch a (kmax - 1) (fun v _ ->
              Work.charge work 1;
              consider v))
      deleted;
    for v = old_n to new_n - 1 do
      consider_expanding v
    done
  in
  match seed () with
  | exception Work.Exhausted -> (Dearer, Work.spent work)
  | () ->
    let seed_work = Work.spent work and seed_area = Bitset.cardinal area in
    (* The rest is guessed from each of the query's last two sparse
       attempts at its work per seeded node, which folds in both the
       work per area node and the growth over rounds.  A completed
       attempt gives an estimate, an abandoned one a lower bound; while
       there are fewer than two attempts, the seeding's own work is an
       estimate too.  The smallest estimate wins unless the largest
       bound is smaller: one flood among ordinary updates does not
       decide alone, two abandoned attempts do. *)
    let guess a = seed_area * a.rest_work / a.seed_area in
    let completed, abandoned = List.partition (fun a -> a.completed) t.recent in
    let estimate =
      List.fold_left
        (fun best a -> min best (guess a))
        (if List.compare_length_with t.recent 2 < 0 then seed_work else max_int)
        completed
    and bound =
      match abandoned with
      | [] -> max_int
      | a :: rest -> List.fold_left (fun worst a -> max worst (guess a)) (guess a) rest
    in
    let predicted = seed_work + min estimate bound in
    if predicted > Work.limit work then (Dearer, predicted)
    else begin
      let rounds = ref 0 in
      let refine () =
        drain_forward ();
        let result = ref old_kernel and continue = ref true in
        while !continue do
          incr rounds;
          let refined = refine_over_area ~work pattern g old_kernel area in
          result := refined;
          let before = Bitset.cardinal area in
          (* Constraints are checked on the new graph, so a changed
             membership (either direction) can only influence the
             candidates within kmax hops upstream in the new graph: a
             lost witness matters to v only while it still lies in v's
             current ball, and a gained witness only through a current
             path.  Only area nodes can have changed. *)
          let changed = ref [] in
          Bitset.iter
            (fun v ->
              let rec differs u =
                u < psize
                && (Match_relation.mem refined u v <> Match_relation.mem old_kernel u v
                   || differs (u + 1))
              in
              if differs 0 then changed := v :: !changed)
            area;
          (* Backward-pulled nodes are re-derived but need no group
             search: any undiscovered group has its own seed or
             edge-target entry point. *)
          List.iter
            (fun w ->
              DDist.reverse_ball t.scratch g w kmax (fun p _ -> consider p);
              charge_visits ())
            !changed;
          continue := Bitset.cardinal area <> before
        done;
        !result
      in
      let outcome =
        match refine () with
        | kernel -> Closed { kernel; area; rounds = !rounds }
        | exception Work.Exhausted -> Abandoned
      in
      (* An empty seed says nothing about the work per seeded node. *)
      if seed_area > 0 then begin
        let attempt =
          {
            rest_work = Work.spent work - seed_work;
            seed_area;
            completed = (match outcome with Closed _ -> true | _ -> false);
          }
        in
        t.recent <- (match t.recent with last :: _ -> [ attempt; last ] | [] -> [ attempt ])
      end;
      (outcome, predicted)
    end

(* Conservative baseline (ablation EXP-A3): the affected area is the full
   ancestor set of every touched source, in the old and new graphs. *)
let sync_ancestors t ~old_kernel ~old_n ~patch ~inserted ~deleted ~work =
  let g = t.g in
  let new_n = Digraph.node_count g in
  let area = Bitset.create new_n in
  let sources = List.map fst (inserted @ deleted) in
  new_ancestors g sources (fun v -> Bitset.add area v);
  old_ancestors g patch (List.map fst deleted) (fun v -> Bitset.add area v);
  for v = old_n to new_n - 1 do
    Bitset.add area v
  done;
  (refine_over_area ~work t.pattern g old_kernel area, area)

type outcome = {
  report : report;
  route : route;
  price : int;
  predicted : int;
  spent : int; (* work of the sparse path, in dense units *)
}

(* Maintenance after [effective] was already applied to the tracked
   digraph. *)
let sync_applied_untraced ?published t ~effective =
  let old_n = t.scratch_n in
  refresh_scratch t;
  let psize = Pattern.size t.pattern in
  let new_n = Digraph.node_count t.g in
  let old_kernel = resize_kernel t.kernel ~pattern_size:psize ~new_n in
  let effective_count = List.length effective in
  (* A recompute evaluates on the published snapshot when it is this
     version of the tracked graph; otherwise it first builds one, which
     writes every node and edge once. *)
  let published =
    match published with
    | Some s
      when Snapshot.graph_id s = Digraph.graph_id t.g && Snapshot.epoch s = Digraph.version t.g
      ->
      Some s
    | _ -> None
  in
  let price =
    match published with
    | Some _ -> t.price
    | None -> t.price + new_n + Digraph.edge_count t.g
  in
  (* [area] holds every node whose pairs may have changed; [None] is the
     whole graph. *)
  let finish ~kernel ~area ~iterations ~route ~predicted ~spent =
    let iter_nodes f =
      match area with
      | Some bits -> Bitset.iter f bits
      | None ->
        for v = 0 to new_n - 1 do
          f v
        done
    in
    let added, removed = diff_relations ~iter_nodes old_kernel kernel in
    let area = match area with Some bits -> Bitset.cardinal bits | None -> new_n in
    t.kernel <- kernel;
    t.expected_version <- Digraph.version t.g;
    Log.debug (fun m ->
        m "sync (%s): %d updates, area %d/%d, %d rounds, +%d/-%d pairs, work %d/%d"
          (route_name route) effective_count area new_n iterations (List.length added)
          (List.length removed) spent price);
    {
      report = { effective = effective_count; area; iterations; added; removed };
      route;
      price;
      predicted;
      spent;
    }
  in
  let recompute_as route ~predicted ~spent =
    let snap =
      match published with Some s -> s | None -> Snapshot.of_digraph t.g
    in
    recompute_on t snap;
    finish ~kernel:t.kernel ~area:None ~iterations:0 ~route ~predicted ~spent
  in
  if Pattern.has_unbounded_edge t.pattern then
    (* Unbounded edges have no dependency radius; maintain those queries
       by recomputation. *)
    recompute_as Recompute ~predicted:0 ~spent:0
  else begin
    let patch, inserted, deleted = make_patch t.g effective in
    match t.strategy with
    | Ancestors ->
      let work = Work.create () in
      let kernel, area =
        sync_ancestors t ~old_kernel ~old_n ~patch ~inserted ~deleted ~work
      in
      finish ~kernel ~area:(Some area) ~iterations:1 ~route:Sparse ~predicted:0
        ~spent:(sparse_unit_cost * Work.spent work)
    | Ball_closure -> (
      let work = Work.create ~limit:(price / sparse_unit_cost) () in
      let closure, predicted =
        sync_ball_closure t ~old_kernel ~old_n ~patch ~inserted ~deleted ~work
      in
      let predicted = sparse_unit_cost * predicted
      and spent = sparse_unit_cost * Work.spent work in
      match closure with
      | Closed { kernel; area; rounds } ->
        finish ~kernel ~area:(Some area) ~iterations:rounds ~route:Sparse ~predicted ~spent
      | Dearer -> recompute_as Recompute ~predicted ~spent
      | Abandoned -> recompute_as Aborted ~predicted ~spent)
  end

let sync_applied ?published t ~effective =
  Counter.incr m_syncs;
  with_span "incremental.sync"
    ~attrs:[ ("query", Pattern.fingerprint t.pattern) ]
    (fun () ->
      let o = sync_applied_untraced ?published t ~effective in
      let report = o.report in
      Counter.add m_area report.area;
      Counter.add m_rounds report.iterations;
      Counter.add m_added (List.length report.added);
      Counter.add m_removed (List.length report.removed);
      if o.route <> Sparse then Counter.incr m_floods;
      (* Looked up per sync rather than bound at module level, which
         keeps the shared-state allowlist from growing. *)
      let aborts = Metrics.counter "incremental.aborts" in
      if o.route = Aborted then Counter.incr aborts;
      annotate "route" (route_name o.route);
      annotate_int "price" o.price;
      annotate_int "predicted" o.predicted;
      annotate_int "spent" o.spent;
      annotate_int "area" report.area;
      annotate_int "rounds" report.iterations;
      annotate_int "added" (List.length report.added);
      annotate_int "removed" (List.length report.removed);
      report)

let apply_updates t g updates =
  if not (g == t.g) then
    invalid_arg "Incremental.apply_updates: different digraph than the tracked one";
  if Digraph.version g <> t.expected_version then
    invalid_arg "Incremental.apply_updates: digraph out of sync with tracked snapshot";
  let effective = Update.apply_batch_filtered g updates in
  sync_applied t ~effective
