open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_considered = Metrics.counter "candidates.considered"

let m_kept = Metrics.counter "candidates.kept"

(* One increment per traversal of a label bucket (or of the whole node
   table for an unlabelled spec).  Batch extraction shares traversals
   across queries, so the batch/sequential difference is visible here. *)
let m_scans = Metrics.counter "candidates.scans"

let compute pattern g =
  let m =
    Match_relation.create ~pattern_size:(Pattern.size pattern)
      ~graph_size:(Snapshot.node_count g)
  in
  let considered = ref 0 and kept = ref 0 and scans = ref 0 in
  for u = 0 to Pattern.size pattern - 1 do
    let spec = Pattern.node_spec pattern u in
    let consider v =
      incr considered;
      if Predicate.eval spec.Pattern.pred (Snapshot.attrs g v) then begin
        incr kept;
        Match_relation.add m u v
      end
    in
    incr scans;
    match spec.Pattern.label with
    | Some l -> List.iter consider (Snapshot.nodes_with_label g l)
    | None -> Snapshot.iter_nodes g consider
  done;
  Counter.add m_considered !considered;
  Counter.add m_kept !kept;
  Counter.add m_scans !scans;
  m

let compute_batch patterns g =
  let ms =
    Array.map
      (fun p ->
        Match_relation.create ~pattern_size:(Pattern.size p)
          ~graph_size:(Snapshot.node_count g))
      patterns
  in
  (* Group every (query, pattern-node) spec by its label so each label
     bucket is traversed once for the whole batch; unlabelled specs
     share a single full-table scan. *)
  let by_label : (Label.t, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  let unlabelled = ref [] in
  Array.iteri
    (fun q p ->
      for u = 0 to Pattern.size p - 1 do
        match (Pattern.node_spec p u).Pattern.label with
        | Some l -> (
          match Hashtbl.find_opt by_label l with
          | Some specs -> specs := (q, u) :: !specs
          | None -> Hashtbl.add by_label l (ref [ (q, u) ]))
        | None -> unlabelled := (q, u) :: !unlabelled
      done)
    patterns;
  let considered = ref 0 and kept = ref 0 and scans = ref 0 in
  let consider specs v =
    let a = Snapshot.attrs g v in
    List.iter
      (fun (q, u) ->
        incr considered;
        if Predicate.eval (Pattern.node_spec patterns.(q) u).Pattern.pred a then begin
          incr kept;
          Match_relation.add ms.(q) u v
        end)
      specs
  in
  Hashtbl.iter
    (fun l specs ->
      incr scans;
      List.iter (consider !specs) (Snapshot.nodes_with_label g l))
    by_label;
  if !unlabelled <> [] then begin
    incr scans;
    Snapshot.iter_nodes g (consider !unlabelled)
  end;
  Counter.add m_considered !considered;
  Counter.add m_kept !kept;
  Counter.add m_scans !scans;
  ms

let compute_for_nodes pattern g area =
  let m =
    Match_relation.create ~pattern_size:(Pattern.size pattern)
      ~graph_size:(Snapshot.node_count g)
  in
  for u = 0 to Pattern.size pattern - 1 do
    Bitset.iter
      (fun v ->
        if Pattern.matches_node pattern u (Snapshot.label g v) (Snapshot.attrs g v) then
          Match_relation.add m u v)
      area
  done;
  m
