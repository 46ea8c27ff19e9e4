open Expfinder_graph
open Expfinder_pattern
open Expfinder_incremental

type t = {
  atoms : Predicate.atom list;
  mutable snap : Snapshot.t;
  mutable partition : int array;
  mutable compress : Compress.t;
}

type report = {
  effective : int;
  area : int;
  blocks_before : int;
  blocks_after : int;
}

let key_of = Compress.signature_key

let of_snapshot atoms snap partition =
  { atoms; snap; partition; compress = Compress.of_partition ~atoms snap partition }

let create ?(atoms = []) g =
  let snap = Snapshot.of_digraph g in
  of_snapshot atoms snap (Bisimulation.compute (Snapshot.csr snap) ~key:(key_of atoms snap))

let create_if_pays ?(atoms = []) snap =
  match
    Bisimulation.compute_within (Snapshot.csr snap) ~key:(key_of atoms snap)
      ~limit:(Compress.block_limit (Snapshot.node_count snap))
  with
  | Bisimulation.Partition partition -> Some (of_snapshot atoms snap partition)
  | Over_limit _ -> None

let current t = t.compress

let rebuild t g =
  t.snap <- Snapshot.of_digraph g;
  t.partition <- Bisimulation.compute (Snapshot.csr t.snap) ~key:(key_of t.atoms t.snap);
  t.compress <- Compress.of_partition ~atoms:t.atoms t.snap t.partition

let maintain t ~limit ~snapshot ~effective updates =
  let old_snap = t.snap in
  let old_n = Snapshot.node_count old_snap in
  let blocks_before = Bisimulation.block_count t.partition in
  let new_n = Snapshot.node_count snapshot in
  let seeds = Update.touched_sources updates in
  let area = Bitset.create new_n in
  let old_seeds = List.filter (fun v -> v < old_n) seeds in
  if old_seeds <> [] then
    Traversal.bfs_rev (Snapshot.csr old_snap) old_seeds (fun v _ -> Bitset.add area v);
  let new_seeds = List.filter (fun v -> v < new_n) seeds in
  if new_seeds <> [] then
    Traversal.bfs_rev (Snapshot.csr snapshot) new_seeds (fun v _ -> Bitset.add area v);
  for v = old_n to new_n - 1 do
    Bitset.add area v
  done;
  let csr = Snapshot.csr snapshot and key = key_of t.atoms snapshot in
  (* Local re-refinement pays off while the affected area is a minority
     of the graph; beyond that a fresh coarsest partition is both faster
     and optimal, so fall back (this also resets any accumulated
     drift).  A local result over [limit] may only be finer than the
     coarsest partition, so a fresh refinement decides it too. *)
  let outcome =
    if 2 * Bitset.cardinal area > new_n then Bisimulation.compute_within csr ~key ~limit
    else
      let local = Bisimulation.refine_local csr ~key ~prev:t.partition ~area in
      if Bisimulation.block_count local <= limit then Bisimulation.Partition local
      else Bisimulation.compute_within csr ~key ~limit
  in
  match outcome with
  | Bisimulation.Over_limit _ -> None
  | Partition partition ->
    t.snap <- snapshot;
    t.partition <- partition;
    t.compress <- Compress.of_partition ~atoms:t.atoms snapshot partition;
    Some
      {
        effective;
        area = Bitset.cardinal area;
        blocks_before;
        blocks_after = Bisimulation.block_count partition;
      }

let sync t ~snapshot ~effective updates =
  Option.get (maintain t ~limit:max_int ~snapshot ~effective updates)

let sync_if_pays t ~snapshot ~effective updates =
  maintain t ~limit:(Compress.block_limit (Snapshot.node_count snapshot)) ~snapshot ~effective
    updates

let apply_updates t g updates =
  if
    Digraph.graph_id g <> Snapshot.graph_id t.snap
    || Digraph.version g <> Snapshot.epoch t.snap
  then invalid_arg "Inc_compress.apply_updates: digraph out of sync with tracked snapshot";
  let effective = Update.apply_batch g updates in
  sync t ~snapshot:(Snapshot.of_digraph g) ~effective updates

let fresh_block_count t =
  Bisimulation.block_count (Bisimulation.compute (Snapshot.csr t.snap) ~key:(key_of t.atoms t.snap))
