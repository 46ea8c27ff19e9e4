open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_plans = Metrics.counter "planner.plans"

let m_early_exits = Metrics.counter "planner.early_exits"

let m_pruned_sinks = Metrics.counter "planner.pruned_sinks"

let m_static_empty = Metrics.counter "planner.static_empty"

let m_misestimates = Metrics.counter "planner.misestimate"

type strategy_choice = Use_simulation | Use_bounded

let strategy_name = function Use_simulation -> "simulation" | Use_bounded -> "bounded/witness"

type actuals = { candidates : int array; matched : int array }

type t = {
  candidate_order : int array;
  estimates : float array;
  strategy : strategy_choice;
  prunable : bool array;
  static_empty : bool;
  preds : Predicate.t array;
  mutable actuals : actuals option;
}

(* Estimated candidate count of a pattern node: population under its
   label requirement, scaled by the predicate selectivity measured on a
   bounded, evenly spread sample of that population.  [pred] is the
   implication-tightened predicate from the static analysis. *)
let estimate_candidates ~sample ~preds pattern g u =
  let spec = Pattern.node_spec pattern u in
  let pred = preds.(u) in
  (* Population size from the snapshot's cached label histogram — O(1),
     no bucket walk when the predicate needs no sampling. *)
  let size =
    match spec.Pattern.label with
    | Some l -> Snapshot.label_count g l
    | None -> Snapshot.node_count g
  in
  if size = 0 then 0.0
  else if Predicate.is_always pred then float_of_int size
  else begin
    let population =
      match spec.Pattern.label with
      | Some l -> Snapshot.nodes_with_label g l
      | None -> List.init (Snapshot.node_count g) Fun.id
    in
    let stride = max 1 (size / sample) in
    let probed = ref 0 and satisfied = ref 0 in
    List.iteri
      (fun i v ->
        if i mod stride = 0 && !probed < sample then begin
          incr probed;
          if Predicate.eval pred (Snapshot.attrs g v) then incr satisfied
        end)
      population;
    if !probed = 0 then float_of_int size
    else float_of_int size *. (float_of_int !satisfied /. float_of_int !probed)
  end

let plan ?(sample = 64) pattern g =
  let psize = Pattern.size pattern in
  (* Qlint first: an unsatisfiable node empties the answer on every
     graph, and implication-tightened predicates are cheaper to sample
     and to materialise against. *)
  let static_empty = Pattern_analysis.statically_empty pattern in
  let preds =
    Array.init psize (fun u ->
        Pattern_analysis.simplify (Pattern.node_spec pattern u).Pattern.pred)
  in
  let estimates =
    if static_empty then Array.make psize 0.0
    else Array.init psize (estimate_candidates ~sample ~preds pattern g)
  in
  let candidate_order = Array.init psize Fun.id in
  Array.sort (fun a b -> compare estimates.(a) estimates.(b)) candidate_order;
  (* A candidate with no outgoing data edge cannot satisfy any outgoing
     pattern edge (bounds are >= 1, paths are nonempty). *)
  let prunable = Array.init psize (fun u -> Pattern.out_edges pattern u <> []) in
  let strategy =
    if Pattern.is_simulation_pattern pattern then Use_simulation else Use_bounded
  in
  { candidate_order; estimates; strategy; prunable; static_empty; preds; actuals = None }

(* Alongside the relation, report per-node materialised candidate-set
   sizes (-1 = never materialised, after an earlier node exited empty) —
   the "actual" column of EXPLAIN ANALYZE. *)
let materialise_candidates plan pattern g =
  let m =
    Match_relation.create ~pattern_size:(Pattern.size pattern)
      ~graph_size:(Snapshot.node_count g)
  in
  let sizes = Array.make (Pattern.size pattern) (-1) in
  let ok = ref true in
  let kept = ref 0 and pruned = ref 0 in
  Array.iter
    (fun u ->
      if !ok then begin
        let spec = Pattern.node_spec pattern u in
        let pred = plan.preds.(u) in
        let kept_u = ref 0 in
        let consider v =
          if Predicate.eval pred (Snapshot.attrs g v) then
            if (not plan.prunable.(u)) || Snapshot.out_degree g v > 0 then begin
              Match_relation.add m u v;
              incr kept;
              incr kept_u
            end
            else incr pruned
        in
        Candidates.scan g spec consider;
        sizes.(u) <- !kept_u;
        (* Early exit: an empty candidate set empties the whole kernel. *)
        if !kept_u = 0 then begin
          ok := false;
          annotate "empty" (Pattern.name pattern u)
        end
      end)
    plan.candidate_order;
  Counter.add m_pruned_sinks !pruned;
  annotate_int "kept" !kept;
  annotate_int "pruned_sinks" !pruned;
  ((if !ok then Some m else None), sizes)

let empty_relation pattern g =
  Match_relation.create ~pattern_size:(Pattern.size pattern)
    ~graph_size:(Snapshot.node_count g)

(* Store the execution actuals on the plan and bump [planner.misestimate]
   for every materialised node whose estimate was off by more than 4x in
   either direction (the smoothing +1 keeps empty sets comparable). *)
let note_actuals plan ~candidates ~matched =
  plan.actuals <- Some { candidates; matched };
  Array.iteri
    (fun u act ->
      if act >= 0 then begin
        let f = (plan.estimates.(u) +. 1.0) /. (float_of_int act +. 1.0) in
        if f > 4.0 || f < 0.25 then Counter.incr m_misestimates
      end)
    candidates

let execute plan pattern g =
  let psize = Pattern.size pattern in
  if plan.static_empty then begin
    (* Qlint fast path: some node's conditions are contradictory, so the
       kernel is empty without touching the data graph. *)
    Counter.incr m_static_empty;
    plan.actuals <-
      Some { candidates = Array.make psize (-1); matched = Array.make psize 0 };
    empty_relation pattern g
  end
  else
  let initial, cand_sizes =
    with_span "candidates" (fun () -> materialise_candidates plan pattern g)
  in
  match initial with
  | None ->
    Counter.incr m_early_exits;
    note_actuals plan ~candidates:cand_sizes ~matched:(Array.make psize 0);
    empty_relation pattern g
  | Some initial ->
    let rel =
      with_span
        ~attrs:[ ("strategy", strategy_name plan.strategy) ]
        "refine"
        (fun () ->
          match plan.strategy with
          | Use_simulation ->
            Simulation.run_constrained pattern g ~initial ~mutable_set:None
          | Use_bounded -> Bounded_sim.run_constrained pattern g ~initial ~mutable_set:None)
    in
    note_actuals plan ~candidates:cand_sizes
      ~matched:(Array.init psize (Match_relation.count rel));
    rel

let run_with_plan ?sample pattern g =
  let p =
    with_span "plan" (fun () ->
        let p = plan ?sample pattern g in
        Counter.incr m_plans;
        if p.static_empty then annotate "static_empty" "true";
        annotate "strategy" (strategy_name p.strategy);
        annotate "order"
          (String.concat ">"
             (Array.to_list (Array.map (Pattern.name pattern) p.candidate_order)));
        p)
  in
  (execute p pattern g, p)

let run ?sample pattern g = fst (run_with_plan ?sample pattern g)

let explain pattern plan =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "plan:\n";
  if plan.static_empty then
    Buffer.add_string buf
      "  statically empty: a node's conditions are unsatisfiable (see `expfinder analyze`);\n\
      \  the answer is empty without evaluation\n";
  Buffer.add_string buf
    (Printf.sprintf "  strategy: %s\n"
       (match plan.strategy with
       | Use_simulation -> "graph simulation (all bounds = 1)"
       | Use_bounded -> "bounded simulation, witness"));
  Buffer.add_string buf "  candidate order (cheapest first):\n";
  Array.iter
    (fun u ->
      Buffer.add_string buf
        (Printf.sprintf "    %-12s ~%.0f candidates%s\n" (Pattern.name pattern u)
           plan.estimates.(u)
           (if plan.prunable.(u) then ", sinks pruned" else "")))
    plan.candidate_order;
  Buffer.contents buf

let explain_analyze pattern plan =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (explain pattern plan);
  (match plan.actuals with
  | None ->
    Buffer.add_string buf "analysis: plan not executed (no actuals recorded)\n"
  | Some { candidates; matched } ->
    Buffer.add_string buf "analysis (estimated vs actual):\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-12s %12s %12s %10s %10s\n" "node" "est.cand"
         "act.cand" "matched" "removed");
    let misses = ref 0 in
    Array.iter
      (fun u ->
        let est = plan.estimates.(u) in
        let act = candidates.(u) in
        let mat = matched.(u) in
        if act < 0 then
          (* Earlier node exited empty: this set was never materialised. *)
          Buffer.add_string buf
            (Printf.sprintf "  %-12s %12.0f %12s %10s %10s\n"
               (Pattern.name pattern u) est "-" "-" "-")
        else begin
          let f = (est +. 1.0) /. (float_of_int act +. 1.0) in
          let off = f > 4.0 || f < 0.25 in
          if off then incr misses;
          Buffer.add_string buf
            (Printf.sprintf "  %-12s %12.0f %12d %10d %10d%s\n"
               (Pattern.name pattern u) est act mat (act - mat)
               (if off then "   <- misestimate" else ""))
        end)
      plan.candidate_order;
    if !misses > 0 then
      Buffer.add_string buf
        (Printf.sprintf
           "  %d node(s) misestimated by >4x (counter planner.misestimate)\n"
           !misses));
  Buffer.contents buf
