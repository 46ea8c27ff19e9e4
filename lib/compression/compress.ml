open Expfinder_graph
open Expfinder_pattern
open Expfinder_core
open Expfinder_telemetry

let m_builds = Metrics.counter "compress.builds"

let m_evaluations = Metrics.counter "compress.evaluations"

let m_expanded_pairs = Metrics.counter "compress.expanded_pairs"

type t = {
  atoms : Predicate.atom list;
  original : Snapshot.t;
  compressed : Snapshot.t;
  block_of : int array;
  members : int list array;
}

(* Signature of a node w.r.t. the atom universe: label + one bit per
   atom.  Nodes merged by the bisimulation agree on all of it. *)
let signature_key atoms g v =
  let label = Label.to_int (Snapshot.label g v) in
  let attrs = Snapshot.attrs g v in
  let bits =
    List.fold_left
      (fun acc atom ->
        (2 * acc) + if Predicate.eval (Predicate.of_atoms [ atom ]) attrs then 1 else 0)
      0 atoms
  in
  (label * 1048576) + bits

let min_node_reduction = 0.25

let block_limit n = n - int_of_float (Float.ceil (min_node_reduction *. float_of_int n))

let of_partition ?(atoms = []) g block_of =
  let nblocks = Bisimulation.block_count block_of in
  let members = Array.make (max nblocks 1) [] in
  for v = Snapshot.node_count g - 1 downto 0 do
    members.(block_of.(v)) <- v :: members.(block_of.(v))
  done;
  let gc = Digraph.create ~capacity:nblocks () in
  for b = 0 to nblocks - 1 do
    (* All members share label and atom signature; use the first as the
       representative for candidate evaluation. *)
    match members.(b) with
    | [] -> ignore (Digraph.add_node gc (Label.of_string "") : int)
    | rep :: _ -> ignore (Digraph.add_node gc ~attrs:(Snapshot.attrs g rep) (Snapshot.label g rep) : int)
  done;
  (* Within-block edges become self-loops: by stability every member of
     such a block can step to another member of the same class. *)
  Snapshot.iter_edges g (fun u v ->
      ignore (Digraph.add_edge gc block_of.(u) block_of.(v) : bool));
  { atoms; original = g; compressed = Snapshot.of_digraph gc; block_of; members }

let compress ?(atoms = []) g =
  Counter.incr m_builds;
  with_span "compress.build" (fun () ->
      let key = signature_key atoms g in
      let block_of = Bisimulation.compute (Snapshot.csr g) ~key in
      of_partition ~atoms g block_of)

let atoms t = t.atoms

let original t = t.original

let compressed t = t.compressed

let block_count t = Array.length t.members

let block_of t v =
  if v < 0 || v >= Snapshot.node_count t.original then invalid_arg "Compress.block_of";
  t.block_of.(v)

let partition t = Array.copy t.block_of

let members t b =
  if b < 0 || b >= block_count t then invalid_arg "Compress.members";
  t.members.(b)

let node_ratio t =
  let n = Snapshot.node_count t.original in
  if n = 0 then 0.0 else 1.0 -. (float_of_int (block_count t) /. float_of_int n)

let edge_ratio t =
  let m = Snapshot.edge_count t.original in
  if m = 0 then 0.0
  else 1.0 -. (float_of_int (Snapshot.edge_count t.compressed) /. float_of_int m)

let supports t pattern =
  let universe = t.atoms in
  let atom_in_universe a =
    List.exists
      (fun a' ->
        String.equal a.Predicate.attr a'.Predicate.attr
        && a.Predicate.op = a'.Predicate.op
        && Attr.equal a.Predicate.value a'.Predicate.value)
      universe
  in
  let ok = ref true in
  for u = 0 to Pattern.size pattern - 1 do
    let spec = Pattern.node_spec pattern u in
    List.iter
      (fun a -> if not (atom_in_universe a) then ok := false)
      (Predicate.atoms spec.Pattern.pred)
  done;
  !ok

let evaluate_compressed t pattern =
  if not (supports t pattern) then
    invalid_arg "Compress.evaluate_compressed: pattern conditions outside the atom universe";
  if Pattern.is_simulation_pattern pattern then Simulation.run pattern t.compressed
  else Bounded_sim.run pattern t.compressed

let expand t mc =
  with_span "compress.expand" (fun () ->
      let m =
        Match_relation.create
          ~pattern_size:(Match_relation.pattern_size mc)
          ~graph_size:(Snapshot.node_count t.original)
      in
      for u = 0 to Match_relation.pattern_size mc - 1 do
        List.iter
          (fun b -> List.iter (fun v -> Match_relation.add m u v) t.members.(b))
          (Match_relation.matches mc u)
      done;
      Counter.add m_expanded_pairs (Match_relation.total m);
      annotate_int "pairs" (Match_relation.total m);
      m)

let evaluate t pattern =
  Counter.incr m_evaluations;
  with_span "compress.evaluate" (fun () ->
      let mc = with_span "compress.kernel" (fun () -> evaluate_compressed t pattern) in
      expand t mc)
