open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_pops = Metrics.counter "sparse.worklist_pops"

let m_removals = Metrics.counter "sparse.removals"

let m_balls = Metrics.counter "sparse.ball_expansions"

module Make (G : Graph_intf.GRAPH) = struct
  module Dist = Distance.Make (G)

  type edge_index = {
    edge_array : (int * int * Pattern.bound) array;
    out_of : int list array;
    in_of : int list array;
  }

  let index_edges pattern =
    let edge_array = Array.of_list (Pattern.edges pattern) in
    let out_of = Array.make (Pattern.size pattern) [] in
    let in_of = Array.make (Pattern.size pattern) [] in
    Array.iteri
      (fun e (u, u', _) ->
        out_of.(u) <- e :: out_of.(u);
        in_of.(u') <- e :: in_of.(u'))
      edge_array;
    { edge_array; out_of; in_of }

  let simulation pattern g ~initial ~area =
    let n = G.node_count g in
    let sim = Match_relation.copy initial in
    let idx = index_edges pattern in
    let ne = Array.length idx.edge_array in
    (* cnt: (pattern edge, area node) -> |succ(v) ∩ sim(u')|. *)
    let cnt : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let key e v = (e * n) + v in
    Bitset.iter
      (fun v ->
        for e = 0 to ne - 1 do
          let _, u', _ = idx.edge_array.(e) in
          let target = Match_relation.matches_set sim u' in
          let c =
            G.fold_succ g v (fun acc w -> if Bitset.mem target w then acc + 1 else acc) 0
          in
          Hashtbl.replace cnt (key e v) c
        done)
      area;
    let worklist = Vec.create ~dummy:(-1) () in
    (* Counted locally and flushed once, keeping the gated-counter check
       out of the refinement hot path. *)
    let n_removals = ref 0 and n_pops = ref 0 in
    let remove u v =
      incr n_removals;
      Match_relation.remove sim u v;
      Vec.push worklist ((u * n) + v)
    in
    Bitset.iter
      (fun v ->
        for u = 0 to Pattern.size pattern - 1 do
          if
            Match_relation.mem sim u v
            && List.exists (fun e -> Hashtbl.find cnt (key e v) = 0) idx.out_of.(u)
          then remove u v
        done)
      area;
    while not (Vec.is_empty worklist) do
      incr n_pops;
      let code = Vec.pop worklist in
      let u' = code / n and w = code mod n in
      List.iter
        (fun e ->
          let u, _, _ = idx.edge_array.(e) in
          G.iter_pred g w (fun p ->
              match Hashtbl.find_opt cnt (key e p) with
              | None -> () (* p outside the area: frozen *)
              | Some c ->
                Hashtbl.replace cnt (key e p) (c - 1);
                if c - 1 = 0 && Match_relation.mem sim u p then remove u p))
        idx.in_of.(u')
    done;
    Counter.add m_removals !n_removals;
    Counter.add m_pops !n_pops;
    sim

  let bounded pattern g ~initial ~area =
    if Pattern.has_unbounded_edge pattern then
      invalid_arg "Sparse_refine.bounded: unbounded pattern edge";
    let n = G.node_count g in
    let sim = Match_relation.copy initial in
    let idx = index_edges pattern in
    let ne = Array.length idx.edge_array in
    let bound_of e =
      match idx.edge_array.(e) with
      | _, _, Pattern.Bounded k -> k
      | _, _, Pattern.Unbounded -> assert false
    in
    let kmax = Option.value ~default:1 (Pattern.max_bound pattern) in
    (* cnt: (pattern edge, area node) -> |ball(v,k) ∩ sim(u')|, built with
       one BFS of radius kmax per area node covering every pattern
       edge. *)
    let cnt : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let key e v = (e * n) + v in
    let scratch = Dist.make_scratch g in
    let counts = Array.make (max ne 1) 0 in
    Counter.add m_balls (Bitset.cardinal area);
    Bitset.iter
      (fun v ->
        Array.fill counts 0 ne 0;
        Dist.ball scratch g v kmax (fun w d ->
            for e = 0 to ne - 1 do
              if d <= bound_of e then begin
                let _, u', _ = idx.edge_array.(e) in
                if Bitset.mem (Match_relation.matches_set sim u') w then
                  counts.(e) <- counts.(e) + 1
              end
            done);
        for e = 0 to ne - 1 do
          Hashtbl.replace cnt (key e v) counts.(e)
        done)
      area;
    let worklist = Vec.create ~dummy:(-1) () in
    let n_removals = ref 0 and n_pops = ref 0 in
    let remove u v =
      incr n_removals;
      Match_relation.remove sim u v;
      Vec.push worklist ((u * n) + v)
    in
    Bitset.iter
      (fun v ->
        for u = 0 to Pattern.size pattern - 1 do
          if
            Match_relation.mem sim u v
            && List.exists (fun e -> Hashtbl.find cnt (key e v) = 0) idx.out_of.(u)
          then remove u v
        done)
      area;
    (* One reverse BFS of radius kmax per removal, decrementing every
       incoming pattern edge whose bound covers the distance. *)
    while not (Vec.is_empty worklist) do
      incr n_pops;
      let code = Vec.pop worklist in
      let u' = code / n and w = code mod n in
      match idx.in_of.(u') with
      | [] -> ()
      | incoming ->
        Counter.incr m_balls;
        Dist.reverse_ball scratch g w kmax (fun p d ->
            List.iter
              (fun e ->
                if d <= bound_of e then
                  match Hashtbl.find_opt cnt (key e p) with
                  | None -> ()
                  | Some c ->
                    let u, _, _ = idx.edge_array.(e) in
                    Hashtbl.replace cnt (key e p) (c - 1);
                    if c - 1 = 0 && Match_relation.mem sim u p then remove u p)
              incoming)
    done;
    Counter.add m_removals !n_removals;
    Counter.add m_pops !n_pops;
    sim
end
