open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_pops = Metrics.counter "bsim.worklist_pops"

let m_removals = Metrics.counter "bsim.removals"

let m_balls = Metrics.counter "bsim.ball_expansions"

let m_sweeps = Metrics.counter "bsim.sweeps"

type strategy = Naive | Counters

let default_strategy = Counters

let strategy_name = function Naive -> "naive" | Counters -> "counters"

let effective_bound g = function
  | Pattern.Bounded k -> k
  | Pattern.Unbounded -> Distance.eccentricity_bound g

(* ------------------------------------------------------------------ *)
(* Counter strategy: cnt.(e).(v) = #{w ∈ sim(u') | 0 < dist(v,w) <= k}  *)
(* maintained under removals via reverse balls.                         *)
(* ------------------------------------------------------------------ *)

let run_counters ~work pattern g ~initial ~mutable_set =
  let n = Snapshot.node_count g in
  let sim = Match_relation.copy initial in
  let edge_array = Array.of_list (Pattern.edges pattern) in
  let ne = Array.length edge_array in
  let out_of = Array.make (Pattern.size pattern) [] in
  let in_of = Array.make (Pattern.size pattern) [] in
  Array.iteri
    (fun e (u, u', _) ->
      out_of.(u) <- e :: out_of.(u);
      in_of.(u') <- e :: in_of.(u'))
    edge_array;
  let is_mutable v =
    match mutable_set with None -> true | Some s -> Bitset.mem s v
  in
  let scratch = Distance.make_scratch g in
  let cnt = Array.init (max ne 1) (fun _ -> Array.make (max n 1) 0) in
  (* Counter init: one reverse ball per (pattern edge, witness) pair. *)
  for e = 0 to ne - 1 do
    let _, u', b = edge_array.(e) in
    let k = effective_bound g b in
    let row = cnt.(e) in
    let witnesses = Match_relation.matches_set sim u' in
    Counter.add m_balls (Bitset.cardinal witnesses);
    Bitset.iter
      (fun w -> Distance.reverse_ball scratch g w k (fun v _ -> row.(v) <- row.(v) + 1))
      witnesses
  done;
  let worklist = Vec.create ~dummy:(-1) () in
  let push u v = Vec.push worklist ((u * n) + v) in
  (* Counted locally and flushed once: the gated-counter check stays out
     of the refinement hot path. *)
  let n_removals = ref 0 and n_pops = ref 0 in
  let remove u v =
    incr n_removals;
    Match_relation.remove sim u v;
    push u v
  in
  for u = 0 to Pattern.size pattern - 1 do
    let victims = ref [] in
    Bitset.iter
      (fun v ->
        if is_mutable v && List.exists (fun e -> cnt.(e).(v) = 0) out_of.(u) then
          victims := v :: !victims)
      (Match_relation.matches_set sim u);
    List.iter (fun v -> remove u v) !victims
  done;
  while not (Vec.is_empty worklist) do
    incr n_pops;
    let code = Vec.pop worklist in
    let u' = code / n and w = code mod n in
    List.iter
      (fun e ->
        let u, _, b = edge_array.(e) in
        let k = effective_bound g b in
        let row = cnt.(e) in
        Counter.incr m_balls;
        Distance.reverse_ball scratch g w k (fun p _ ->
            row.(p) <- row.(p) - 1;
            if row.(p) = 0 && is_mutable p && Match_relation.mem sim u p then
              remove u p))
      in_of.(u')
  done;
  Counter.add m_removals !n_removals;
  Counter.add m_pops !n_pops;
  Work.charge work (Distance.visits scratch);
  sim

(* ------------------------------------------------------------------ *)
(* Naive strategy: sweep-and-recheck until a sweep removes nothing.     *)
(* Unbounded edges consult an SCC-based reachability oracle.            *)
(* ------------------------------------------------------------------ *)

let run_naive ~work pattern g ~initial ~mutable_set =
  let sim = Match_relation.copy initial in
  let scratch = Distance.make_scratch g in
  let reach =
    if Pattern.has_unbounded_edge pattern then Some (Reach.compute g) else None
  in
  let satisfies u v =
    List.for_all
      (fun (u', b) ->
        let targets = Match_relation.matches_set sim u' in
        match (b, reach) with
        | Pattern.Unbounded, Some r ->
          (* Any witness of sim(u') reachable by a nonempty path. *)
          List.exists (fun w -> Reach.reaches r v w) (Match_relation.matches sim u')
        | Pattern.Unbounded, None -> assert false
        | Pattern.Bounded k, _ ->
          Distance.exists_within scratch g v k (fun w -> Bitset.mem targets w))
      (Pattern.out_edges pattern u)
  in
  (* Sweep only the removable nodes: the whole relation in batch mode, the
     affected area in constrained mode — the latter keeps each sweep
     proportional to the area size. *)
  let sweep_nodes f =
    match mutable_set with
    | None ->
      for u = 0 to Pattern.size pattern - 1 do
        Bitset.iter (fun v -> f u v) (Match_relation.matches_set sim u)
      done
    | Some area ->
      Bitset.iter
        (fun v ->
          for u = 0 to Pattern.size pattern - 1 do
            if Match_relation.mem sim u v then f u v
          done)
        area
  in
  let changed = ref true in
  while !changed do
    Counter.incr m_sweeps;
    changed := false;
    (* Victims are removed only after the sweep, so every check in a
       sweep sees the same relation. *)
    let victims = ref [] in
    sweep_nodes (fun u v -> if not (satisfies u v) then victims := (u, v) :: !victims);
    if !victims <> [] then begin
      changed := true;
      Counter.add m_removals (List.length !victims);
      List.iter (fun (u, v) -> Match_relation.remove sim u v) !victims
    end
  done;
  Work.charge work (Distance.visits scratch);
  sim

let refine ~strategy ~work pattern g ~initial ~mutable_set =
  match strategy with
  | Counters -> run_counters ~work pattern g ~initial ~mutable_set
  | Naive -> run_naive ~work pattern g ~initial ~mutable_set

let run_constrained ?(strategy = default_strategy) pattern g ~initial ~mutable_set =
  refine ~strategy ~work:(Work.create ()) pattern g ~initial ~mutable_set

let run ?(strategy = default_strategy) ?(work = Work.create ()) pattern g =
  let initial = Candidates.compute pattern g in
  refine ~strategy ~work pattern g ~initial ~mutable_set:None

let consistent pattern g m =
  let scratch = Distance.make_scratch g in
  let reach =
    if Pattern.has_unbounded_edge pattern then Some (Reach.compute g) else None
  in
  let ok = ref true in
  for u = 0 to Pattern.size pattern - 1 do
    List.iter
      (fun v ->
        if not (Pattern.matches_node pattern u (Snapshot.label g v) (Snapshot.attrs g v)) then
          ok := false;
        List.iter
          (fun (u', b) ->
            let targets = Match_relation.matches_set m u' in
            let holds =
              match (b, reach) with
              | Pattern.Unbounded, Some r ->
                List.exists (fun w -> Reach.reaches r v w) (Match_relation.matches m u')
              | Pattern.Unbounded, None -> false
              | Pattern.Bounded k, _ ->
                Distance.exists_within scratch g v k (fun w -> Bitset.mem targets w)
            in
            if not holds then ok := false)
          (Pattern.out_edges pattern u))
      (Match_relation.matches m u)
  done;
  !ok
