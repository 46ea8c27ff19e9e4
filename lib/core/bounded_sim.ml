open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_pops = Metrics.counter "bsim.worklist_pops"

let m_removals = Metrics.counter "bsim.removals"

let m_balls = Metrics.counter "bsim.ball_expansions"

let effective_bound g = function
  | Pattern.Bounded k -> k
  | Pattern.Unbounded -> Distance.eccentricity_bound g

(* Each mutable candidate v of u keeps, per pattern edge e = (u,u',k),
   one witness w ∈ sim(u') within k hops and sits on w's dependents list
   for e; removing (u',w) re-searches only those. *)
let refine ~work pattern g ~initial ~mutable_set =
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
  (* Work: the BFS visits, charged after each witness search. *)
  let charged = ref 0 in
  let charge_visits () =
    let visits = Distance.visits scratch in
    Work.charge work (visits - !charged);
    charged := visits
  in
  (* The dependents lists of edge [e], as int arrays so that linking
     allocates nothing: [head.(e).(w)] is the first candidate that [w]
     witnesses for [e], [next.(e).(v)] the one after [v]; -1 ends a
     list.  A candidate sits on one list per out-edge at a time. *)
  let head = Array.init ne (fun _ -> Array.make n (-1)) in
  let next = Array.init ne (fun _ -> Array.make n (-1)) in
  let bound = Array.map (fun (_, _, b) -> effective_bound g b) edge_array in
  (* Counted locally and flushed once, also when [work] stops the
     refinement: the atomic counter updates stay out of the hot path. *)
  let n_balls = ref 0 and n_removals = ref 0 and n_pops = ref 0 in
  (* [is_witness.(e) w] records [w] in [found] when it matches the
     target of [e] in the current relation. *)
  let found = ref (-1) in
  let is_witness =
    Array.map
      (fun (_, u', _) ->
        let targets = Match_relation.matches_set sim u' in
        fun w ->
          Bitset.mem targets w
          && begin
            found := w;
            true
          end)
      edge_array
  in
  (* An early-exit forward ball from [v] for a witness of [e]; [v]
     joins its list.  [false]: none is left. *)
  let link e v =
    incr n_balls;
    let hit = Distance.exists_within scratch g v bound.(e) is_witness.(e) in
    charge_visits ();
    if hit then begin
      next.(e).(v) <- head.(e).(!found);
      head.(e).(!found) <- v
    end;
    hit
  in
  let worklist = Vec.create ~dummy:(-1) () in
  let remove u v =
    incr n_removals;
    Match_relation.remove sim u v;
    Vec.push worklist ((u * n) + v)
  in
  let fixpoint () =
    for u = 0 to Pattern.size pattern - 1 do
      let victims = ref [] in
      Bitset.iter
        (fun v ->
          if is_mutable v && not (List.for_all (fun e -> link e v) out_of.(u)) then
            victims := v :: !victims)
        (Match_relation.matches_set sim u);
      List.iter (fun v -> remove u v) !victims
    done;
    (* A removed [(u', w)] empties [w]'s lists for the edges into [u']:
       each dependent still matched searches again, and relinks or goes. *)
    while not (Vec.is_empty worklist) do
      incr n_pops;
      let code = Vec.pop worklist in
      let u' = code / n and w = code mod n in
      List.iter
        (fun e ->
          let u, _, _ = edge_array.(e) in
          let heads = head.(e) and nexts = next.(e) in
          let v = ref heads.(w) in
          heads.(w) <- -1;
          while !v >= 0 do
            let d = !v in
            v := nexts.(d);
            if Match_relation.mem sim u d && not (link e d) then remove u d
          done)
        in_of.(u')
    done
  in
  Fun.protect fixpoint ~finally:(fun () ->
      Counter.add m_balls !n_balls;
      Counter.add m_removals !n_removals;
      Counter.add m_pops !n_pops);
  sim

let run_constrained pattern g ~initial ~mutable_set =
  refine ~work:(Work.create ()) pattern g ~initial ~mutable_set

let run ?(work = Work.create ()) pattern g =
  refine ~work pattern g ~initial:(Candidates.compute pattern g) ~mutable_set:None
