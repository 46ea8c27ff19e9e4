type node_init = int -> Label.t * Attrs.t

let make_nodes n node_init =
  let g = Digraph.create ~capacity:n () in
  for i = 0 to n - 1 do
    let label, attrs = node_init i in
    ignore (Digraph.add_node g ~attrs label : int)
  done;
  g

let erdos_renyi rng ~n ~m node_init =
  if n < 0 || m < 0 then invalid_arg "Generators.erdos_renyi";
  let max_edges = n * (n - 1) in
  let m = min m max_edges in
  let g = make_nodes n node_init in
  let added = ref 0 in
  (* Retry duplicates; for the sparse regimes used here (m << n^2) the
     expected number of retries is negligible. *)
  while !added < m do
    let u = Prng.int rng n in
    let v = Prng.int rng n in
    if u <> v && Digraph.add_edge g u v then incr added
  done;
  g
