type node = int

type t = {
  graph_id : int;
  out_adj : node Vec.t Vec.t;
  in_adj : node Vec.t Vec.t;
  labels : Label.t Vec.t;
  attr_table : Attrs.t Vec.t;
  mutable edges : int;
  mutable version : int;
}

let dummy_adj : node Vec.t = Vec.create ~dummy:(-1) ()

let dummy_label = Label.of_string ""

let create ?(capacity = 16) () =
  {
    graph_id = Graph_id.fresh ();
    out_adj = Vec.create ~capacity ~dummy:dummy_adj ();
    in_adj = Vec.create ~capacity ~dummy:dummy_adj ();
    labels = Vec.create ~capacity ~dummy:dummy_label ();
    attr_table = Vec.create ~capacity ~dummy:Attrs.empty ();
    edges = 0;
    version = 0;
  }

let node_count g = Vec.length g.labels

let edge_count g = g.edges

let version g = g.version

let graph_id g = g.graph_id

let bump g = g.version <- g.version + 1

let mem_node g v = v >= 0 && v < node_count g

let check_node g v = if not (mem_node g v) then invalid_arg "Digraph: unknown node"

let add_node g ?(attrs = Attrs.empty) label =
  let id = node_count g in
  Vec.push g.labels label;
  Vec.push g.attr_table attrs;
  Vec.push g.out_adj (Vec.create ~capacity:2 ~dummy:(-1) ());
  Vec.push g.in_adj (Vec.create ~capacity:2 ~dummy:(-1) ());
  bump g;
  id

let label g v =
  check_node g v;
  Vec.get g.labels v

let attrs g v =
  check_node g v;
  Vec.get g.attr_table v

let set_attrs g v a =
  check_node g v;
  Vec.set g.attr_table v a;
  bump g

let has_edge g u v =
  check_node g u;
  check_node g v;
  Vec.exists (Int.equal v) (Vec.get g.out_adj u)

let add_edge g u v =
  check_node g u;
  check_node g v;
  if has_edge g u v then false
  else begin
    Vec.push (Vec.get g.out_adj u) v;
    Vec.push (Vec.get g.in_adj v) u;
    g.edges <- g.edges + 1;
    bump g;
    true
  end

let remove_edge g u v =
  check_node g u;
  check_node g v;
  let removed = Vec.remove_first (Int.equal v) (Vec.get g.out_adj u) in
  if removed then begin
    ignore (Vec.remove_first (Int.equal u) (Vec.get g.in_adj v) : bool);
    g.edges <- g.edges - 1;
    bump g
  end;
  removed

let out_degree g v =
  check_node g v;
  Vec.length (Vec.get g.out_adj v)

let in_degree g v =
  check_node g v;
  Vec.length (Vec.get g.in_adj v)

let iter_succ g v f =
  check_node g v;
  Vec.iter f (Vec.get g.out_adj v)

let iter_nodes g f =
  for v = 0 to node_count g - 1 do
    f v
  done

let iter_edges g f = iter_nodes g (fun u -> iter_succ g u (fun v -> f u v))

let copy g =
  let copy_adj adj =
    let out = Vec.create ~capacity:(max 1 (Vec.length adj)) ~dummy:dummy_adj () in
    Vec.iter (fun row -> Vec.push out (Vec.copy row)) adj;
    out
  in
  {
    graph_id = Graph_id.fresh ();
    out_adj = copy_adj g.out_adj;
    in_adj = copy_adj g.in_adj;
    labels = Vec.copy g.labels;
    attr_table = Vec.copy g.attr_table;
    edges = g.edges;
    version = 0;
  }

let equal_structure a b =
  node_count a = node_count b
  && edge_count a = edge_count b
  &&
  let ok = ref true in
  iter_nodes a (fun v ->
      if
        (not (Label.equal (label a v) (label b v)))
        || not (Attrs.equal (attrs a v) (attrs b v))
      then ok := false);
  if !ok then
    iter_edges a (fun u v -> if not (has_edge b u v) then ok := false);
  !ok

let pp_stats ppf g =
  let n = node_count g and m = edge_count g in
  let max_out = ref 0 in
  iter_nodes g (fun v -> if out_degree g v > !max_out then max_out := out_degree g v);
  let avg_out = if n = 0 then 0.0 else float_of_int m /. float_of_int n in
  Format.fprintf ppf "graph(nodes=%d, edges=%d, max-out-degree=%d, avg-out-degree=%.2f)" n
    m !max_out avg_out
