open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_pops = Metrics.counter "sim.worklist_pops"

let m_removals = Metrics.counter "sim.removals"

(* Pattern-edge indexing shared by both refinement paths. *)
type edge_index = {
  edge_array : (int * int * Pattern.bound) array;
  out_of : int list array; (* pattern node -> outgoing pattern-edge ids *)
  in_of : int list array; (* pattern node -> incoming pattern-edge ids *)
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

(* ------------------------------------------------------------------ *)
(* Dense path (batch): counters for every node, O(|Q|·|G|).             *)
(* ------------------------------------------------------------------ *)

let run_dense ?(work = Work.create ()) pattern g ~initial =
  let n = Snapshot.node_count g in
  let sim = Match_relation.copy initial in
  let idx = index_edges pattern in
  let ne = Array.length idx.edge_array in
  (* cnt.(e).(v) = |succ(v) ∩ sim(u')| for pattern edge e = (u,u'). *)
  let cnt = Array.init (max ne 1) (fun _ -> Array.make (max n 1) 0) in
  for e = 0 to ne - 1 do
    let _, u', _ = idx.edge_array.(e) in
    let target = Match_relation.matches_set sim u' in
    let row = cnt.(e) in
    for v = 0 to n - 1 do
      Snapshot.iter_succ g v (fun w ->
          if Bitset.mem target w then row.(v) <- row.(v) + 1)
    done
  done;
  let worklist = Vec.create ~dummy:(-1) () in
  (* Counted locally and flushed once: the gated-counter check stays out
     of the refinement hot path. *)
  let n_removals = ref 0 and n_pops = ref 0 in
  (* Work: every adjacency entry scanned, the counting pass included. *)
  let scanned = ref (ne * Snapshot.edge_count g) in
  let remove u v =
    incr n_removals;
    Match_relation.remove sim u v;
    Vec.push worklist ((u * n) + v)
  in
  for u = 0 to Pattern.size pattern - 1 do
    let victims = ref [] in
    Bitset.iter
      (fun v ->
        if List.exists (fun e -> cnt.(e).(v) = 0) idx.out_of.(u) then
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
        let u, _, _ = idx.edge_array.(e) in
        let row = cnt.(e) in
        scanned := !scanned + Snapshot.in_degree g w;
        Snapshot.iter_pred g w (fun p ->
            row.(p) <- row.(p) - 1;
            if row.(p) = 0 && Match_relation.mem sim u p then remove u p))
      idx.in_of.(u')
  done;
  Counter.add m_removals !n_removals;
  Counter.add m_pops !n_pops;
  Work.charge work !scanned;
  sim

(* The sparse path (only nodes of [area] may be removed, counters exist
   only for them) is shared with the incremental module's Digraph
   instance. *)
module Snap_refine = Sparse_refine.Make (Snapshot)

let run_constrained pattern g ~initial ~mutable_set =
  match mutable_set with
  | None -> run_dense pattern g ~initial
  | Some area -> Snap_refine.simulation pattern g ~initial ~area

let run ?work pattern g =
  let initial = Candidates.compute pattern g in
  run_dense ?work pattern g ~initial

let consistent pattern g m =
  let ok = ref true in
  for u = 0 to Pattern.size pattern - 1 do
    List.iter
      (fun v ->
        if not (Pattern.matches_node pattern u (Snapshot.label g v) (Snapshot.attrs g v)) then
          ok := false;
        List.iter
          (fun (u', _) ->
            if not (Snapshot.exists_succ g v (fun w -> Match_relation.mem m u' w)) then
              ok := false)
          (Pattern.out_edges pattern u))
      (Match_relation.matches m u)
  done;
  !ok
