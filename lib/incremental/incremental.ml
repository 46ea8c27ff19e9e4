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

(* Sparse syncs that stopped mid-way and recomputed. *)
let m_aborts = Metrics.counter "incremental.aborts"

let src = Logs.Src.create "expfinder.incremental" ~doc:"incremental match maintenance"

module Log = (val Logs.src_log src : Logs.LOG)

(* A sparse attempt: the work it spent after seeding, its seeded area,
   and whether it reached the fixpoint (otherwise the work is a lower
   bound). *)
type attempt = { rest_work : int; seed_area : int; completed : bool }

type t = {
  pattern : Pattern.t;
  g : Digraph.t;
  mutable snap : Snapshot.t; (* the epoch [kernel] was computed on *)
  mutable kernel : Match_relation.t;
  mutable candidates : Match_relation.t;
      (* [Candidates.compute] on the nodes it covers: a node's label and
         attributes never change, so only inserted nodes extend it *)
  mutable scratch : Distance.scratch;
  mutable index : int array; (* node -> area-local number, -1 between builds *)
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

(* The sparse path pays more per unit of work than a dense run: each
   BFS visit of its seeding and group search also tests and re-derives
   candidacy and queues the node, and each refinement round first builds
   its area-local CSR, which is not charged.  One sparse unit (a BFS
   visit or an adjacency entry scanned) costs about this many dense
   units; measured in DESIGN.md §Incremental. *)
let sparse_unit_cost = 2

(* A dense evaluation from the candidate relation, and its work. *)
let evaluate_dense pattern snap ~candidates =
  let work = Work.create () in
  let kernel =
    (if Pattern.is_simulation_pattern pattern then Simulation.refine else Bounded_sim.refine)
      ~work pattern snap ~initial:candidates ~mutable_set:None
  in
  (kernel, Work.spent work)

(* [published] when it is a snapshot of [g] at its current version. *)
let current ?published g =
  match published with
  | Some s when Snapshot.graph_id s = Digraph.graph_id g && Snapshot.epoch s = Digraph.version g
    ->
    Some s
  | _ -> None

(* BFS scratch and area-local numbering sized for [snap]; they only
   grow, since updates never remove a node. *)
let fit_scratch t snap =
  if Snapshot.node_count snap > Array.length t.index then begin
    t.scratch <- Distance.make_scratch snap;
    t.index <- Array.make (Snapshot.node_count snap) (-1)
  end

let create ?published pattern g =
  let snap = match current ?published g with Some s -> s | None -> Snapshot.of_digraph g in
  let candidates = Candidates.compute pattern snap in
  let kernel, price = evaluate_dense pattern snap ~candidates in
  {
    pattern;
    g;
    snap;
    kernel;
    candidates;
    scratch = Distance.make_scratch snap;
    index = Array.make (Snapshot.node_count snap) (-1);
    price;
    recent = [];
  }

let pattern t = t.pattern

let kernel t = t.kernel

let snapshot t = t.snap

let resize_relation rel ~pattern_size ~new_n =
  if Match_relation.graph_size rel = new_n then Match_relation.copy rel
  else
    Match_relation.of_pairs ~pattern_size ~graph_size:new_n (Match_relation.pairs rel)

(* The pairs [after] adds to and removes from [before], each list ordered
   by pattern node, then data node: a walk over the XOR of each pattern
   node's two bitsets. *)
let diff_relations before after =
  let added = ref [] and removed = ref [] in
  for u = Match_relation.pattern_size after - 1 downto 0 do
    let a = ref [] and r = ref [] in
    let now = Match_relation.matches_set after u in
    Bitset.iter_xor
      (fun v -> if Bitset.mem now v then a := (u, v) :: !a else r := (u, v) :: !r)
      (Match_relation.matches_set before u)
      now;
    added := List.rev_append !a !added;
    removed := List.rev_append !r !removed
  done;
  (!added, !removed)

let is_candidate pattern snap v =
  let label = Snapshot.label snap v and attrs = Snapshot.attrs snap v in
  let rec loop u =
    u < Pattern.size pattern && (Pattern.matches_node pattern u label attrs || loop (u + 1))
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Maintenance                                                          *)
(* ------------------------------------------------------------------ *)

(* The graph a refinement round runs on: the area, then every node
   within [kmax] hops downstream of it, numbered in that BFS order; only
   the nodes within [kmax - 1] hops keep their out-edges.  Every path of
   length <= kmax from an area node survives, so each distance an area
   node's constraints read is exact, and the frozen nodes past the area
   cost nothing.  [index] maps graph nodes to local numbers during the
   build and is all -1 again on return. *)
let area_graph ~index snap area ~kmax =
  let csr = Snapshot.csr snap in
  let nodes = Vec.create ~dummy:(-1) () in
  let visit v =
    if index.(v) < 0 then begin
      index.(v) <- Vec.length nodes;
      Vec.push nodes v
    end
  in
  Bitset.iter visit area;
  let level = ref 0 in
  for _ = 1 to kmax do
    let next = Vec.length nodes in
    for i = !level to next - 1 do
      Csr.iter_succ csr (Vec.get nodes i) visit
    done;
    level := next
  done;
  let nodes = Vec.to_array nodes in
  let local = Csr.induced csr ~nodes ~inner:!level ~local:(Array.get index) in
  Array.iter (fun v -> index.(v) <- -1) nodes;
  (Snapshot.of_csr local, nodes)

(* The dense kernels on the area-local graph, with the area as the
   mutable set, mapped back onto [initial]. *)
let refine_local ~work ~index pattern snap ~initial ~area =
  if Pattern.has_unbounded_edge pattern then
    invalid_arg "Incremental.refine_over_area: unbounded pattern edge";
  let kmax = Option.value ~default:1 (Pattern.max_bound pattern) in
  let local, nodes = area_graph ~index snap area ~kmax in
  let psize = Pattern.size pattern and n = Array.length nodes in
  let local_initial = Match_relation.create ~pattern_size:psize ~graph_size:n in
  Array.iteri
    (fun i v ->
      for u = 0 to psize - 1 do
        if Match_relation.mem initial u v then Match_relation.add local_initial u i
      done)
    nodes;
  (* The area holds the first local numbers. *)
  let area_n = Bitset.cardinal area in
  let mutable_set = Bitset.create n in
  for i = 0 to area_n - 1 do
    Bitset.add mutable_set i
  done;
  let kernel =
    if Pattern.is_simulation_pattern pattern then Simulation.refine else Bounded_sim.refine
  in
  let refined =
    kernel ~work pattern local ~initial:local_initial ~mutable_set:(Some mutable_set)
  in
  let result = Match_relation.copy initial in
  for i = 0 to area_n - 1 do
    for u = 0 to psize - 1 do
      if not (Match_relation.mem refined u i) then Match_relation.remove result u nodes.(i)
    done
  done;
  result

let refine_over_area pattern g ~initial ~area =
  let snap = Snapshot.of_digraph g in
  let index = Array.make (Snapshot.node_count snap) (-1) in
  refine_local ~work:(Work.create ()) ~index pattern snap ~initial ~area

(* Sets [v]'s pairs in [rel] to the pattern nodes whose predicates it
   satisfies. *)
let rederive pattern snap rel v =
  let label = Snapshot.label snap v and attrs = Snapshot.attrs snap v in
  for u = 0 to Pattern.size pattern - 1 do
    if Pattern.matches_node pattern u label attrs then Match_relation.add rel u v
    else Match_relation.remove rel u v
  done

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
      source in the new snapshot [snap], or of a net-deleted edge's
      source in the old one [old_snap];
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
let sync_ball_closure t ~old_snap ~snap ~old_kernel ~inserted ~deleted ~work =
  let pattern = t.pattern in
  let psize = Pattern.size pattern in
  let old_n = Snapshot.node_count old_snap and new_n = Snapshot.node_count snap in
  let kmax = Option.value ~default:1 (Pattern.max_bound pattern) in
  let area = Bitset.create new_n in
  (* [base]: the old kernel with the area's pairs re-derived, where each
     refinement round starts; [rejected]: nodes that match no pattern
     node, so never join the area. *)
  let base = Match_relation.copy old_kernel and rejected = Bitset.create new_n in
  let join v =
    (not (Bitset.mem area v))
    && (not (Bitset.mem rejected v))
    &&
    if is_candidate pattern snap v then begin
      Bitset.add area v;
      rederive pattern snap base v;
      true
    end
    else begin
      Bitset.add rejected v;
      false
    end
  in
  let charged = ref (Distance.visits t.scratch) in
  let charge_visits () =
    let visits = Distance.visits t.scratch in
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
    let rec loop u =
      u < psize
      && ((Match_relation.mem base u v && not (Match_relation.mem old_kernel u v))
         || loop (u + 1))
    in
    loop 0
  in
  (* Plain inclusion: the node's membership will be re-derived, but no
     group search starts from it. *)
  let consider v = ignore (join v : bool) in
  (* Inclusion with forward expansion: an uncertain node here may belong
     to an insertion-enabled mutual group, whose other members lie in its
     forward dependency balls. *)
  let pending = Queue.create () in
  let consider_expanding v = if join v then Queue.add v pending in
  let drain_forward () =
    while not (Queue.is_empty pending) do
      let v = Queue.pop pending in
      if uncertain v then begin
        Distance.ball t.scratch snap v kmax (fun w _ -> consider_expanding w);
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
          Distance.reverse_ball t.scratch snap a (kmax - 1) (fun v _ -> consider_expanding v);
          charge_visits ()
        end)
      inserted;
    List.iter
      (fun (a, _) ->
        consider a;
        if kmax > 1 then begin
          Distance.reverse_ball t.scratch old_snap a (kmax - 1) (fun v _ -> consider v);
          charge_visits ()
        end)
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
          let refined =
            refine_local ~work ~index:t.index pattern snap ~initial:base ~area
          in
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
              Distance.reverse_ball t.scratch snap w kmax (fun p _ -> consider p);
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

type outcome = {
  report : report;
  route : route;
  price : int;
  predicted : int;
  spent : int; (* work of the sparse path, in dense units *)
}

(* Maintenance after [effective] was already applied to the tracked
   digraph: from the snapshot the kernel was computed on to one of the
   current version. *)
let sync_applied_untraced ?published t ~effective =
  let old_snap = t.snap in
  (* Without a published snapshot the tracker builds its own, before
     seeding and on either route, and the price adds that build's n + m
     to the dense work.  The term prices no recompute; it keeps these
     standalone syncs routed as the sparse unit cost was calibrated for:
     without it Example 3's unit update (42 sparse units against a dense
     price of 27) aborts to a recompute.  Re-pricing the sparse path is
     left open. *)
  let snap, price =
    match current ?published t.g with
    | Some s -> (s, t.price)
    | None ->
      let s = Snapshot.of_digraph t.g in
      (s, t.price + Snapshot.node_count s + Snapshot.edge_count s)
  in
  fit_scratch t snap;
  let psize = Pattern.size t.pattern in
  let new_n = Snapshot.node_count snap in
  let old_kernel = resize_relation t.kernel ~pattern_size:psize ~new_n in
  let effective_count = List.length effective in
  (* [area] holds every node whose pairs may have changed; [None] is the
     whole graph. *)
  let finish ~kernel ~area ~iterations ~route ~predicted ~spent =
    let added, removed = diff_relations old_kernel kernel in
    let area = match area with Some bits -> Bitset.cardinal bits | None -> new_n in
    t.kernel <- kernel;
    t.snap <- snap;
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
  (* The recompute refines the carried candidates, extended with the
     nodes inserted since; its work becomes the price of the next one. *)
  let recompute_as route ~predicted ~spent =
    let covered = Match_relation.graph_size t.candidates in
    if covered < new_n then begin
      let candidates = resize_relation t.candidates ~pattern_size:psize ~new_n in
      for v = covered to new_n - 1 do
        rederive t.pattern snap candidates v
      done;
      t.candidates <- candidates
    end;
    let kernel, dense = evaluate_dense t.pattern snap ~candidates:t.candidates in
    t.price <- dense;
    finish ~kernel ~area:None ~iterations:0 ~route ~predicted ~spent
  in
  if Pattern.has_unbounded_edge t.pattern then
    (* Unbounded edges have no dependency radius; maintain those queries
       by recomputation. *)
    recompute_as Recompute ~predicted:0 ~spent:0
  else begin
    let inserted, deleted = Update.net_edge_changes t.g effective in
    let work = Work.create ~limit:(price / sparse_unit_cost) () in
    let closure, predicted =
      sync_ball_closure t ~old_snap ~snap ~old_kernel ~inserted ~deleted ~work
    in
    let predicted = sparse_unit_cost * predicted
    and spent = sparse_unit_cost * Work.spent work in
    match closure with
    | Closed { kernel; area; rounds } ->
      finish ~kernel ~area:(Some area) ~iterations:rounds ~route:Sparse ~predicted ~spent
    | Dearer -> recompute_as Recompute ~predicted ~spent
    | Abandoned -> recompute_as Aborted ~predicted ~spent
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
      if o.route = Aborted then Counter.incr m_aborts;
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
  if Digraph.version g <> Snapshot.epoch t.snap then
    invalid_arg "Incremental.apply_updates: digraph out of sync with tracked snapshot";
  let effective = Update.apply_batch_filtered g updates in
  sync_applied t ~effective
