open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_considered = Metrics.counter "candidates.considered"

let m_kept = Metrics.counter "candidates.kept"

(* One increment per traversal of a label bucket (or of the whole node
   table for an unlabelled spec). *)
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
