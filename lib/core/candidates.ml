open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_considered = Metrics.counter "candidates.considered"

let m_kept = Metrics.counter "candidates.kept"

(* One increment per traversal of a label bucket (or of the whole node
   table for an unlabelled spec). *)
let m_scans = Metrics.counter "candidates.scans"

let scan g (spec : Pattern.node_spec) f =
  Counter.incr m_scans;
  match spec.label with
  | Some l -> List.iter f (Snapshot.nodes_with_label g l)
  | None -> Snapshot.iter_nodes g f

let compute pattern g =
  let m =
    Match_relation.create ~pattern_size:(Pattern.size pattern)
      ~graph_size:(Snapshot.node_count g)
  in
  let considered = ref 0 and kept = ref 0 in
  for u = 0 to Pattern.size pattern - 1 do
    let spec = Pattern.node_spec pattern u in
    scan g spec (fun v ->
        incr considered;
        if Predicate.eval spec.Pattern.pred (Snapshot.attrs g v) then begin
          incr kept;
          Match_relation.add m u v
        end)
  done;
  Counter.add m_considered !considered;
  Counter.add m_kept !kept;
  m
