type node = int

type t = {
  n : int;
  m : int;
  fwd_offsets : int array; (* length n+1 *)
  fwd_targets : int array; (* length m *)
  rev_offsets : int array;
  rev_sources : int array;
  labels : Label.t array;
  attr_table : Attrs.t array;
  source_version : int;
  (* Lazily-built label-bucket memo.  Atomic because readers on any
     domain may force it concurrently: losers of the publication race
     adopt the winner's table, so at most one build is ever visible and
     the table is safely published (the Atomic store/load pair is the
     release/acquire edge the plain mutable field lacked). *)
  by_label : (Label.t, node list) Hashtbl.t option Atomic.t;
}

(* The CSR over nodes [0 .. n-1] whose out-edges [iter_succ] lists, in
   that order, [out_degree] of them per node; reverse slices list
   sources in increasing order. *)
let build ~n ~out_degree ~iter_succ ~label ~attrs ~source_version =
  let fwd_offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    fwd_offsets.(v + 1) <- fwd_offsets.(v) + out_degree v
  done;
  let m = fwd_offsets.(n) in
  let fwd_targets = Array.make (max m 1) 0 in
  let rev_offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let pos = ref fwd_offsets.(v) in
    iter_succ v (fun w ->
        fwd_targets.(!pos) <- w;
        incr pos;
        rev_offsets.(w + 1) <- rev_offsets.(w + 1) + 1)
  done;
  for v = 0 to n - 1 do
    rev_offsets.(v + 1) <- rev_offsets.(v + 1) + rev_offsets.(v)
  done;
  let rev_sources = Array.make (max m 1) 0 in
  let rev_pos = Array.sub rev_offsets 0 n in
  for v = 0 to n - 1 do
    for i = fwd_offsets.(v) to fwd_offsets.(v + 1) - 1 do
      let w = fwd_targets.(i) in
      rev_sources.(rev_pos.(w)) <- v;
      rev_pos.(w) <- rev_pos.(w) + 1
    done
  done;
  {
    n;
    m;
    fwd_offsets;
    fwd_targets;
    rev_offsets;
    rev_sources;
    labels = Array.init n label;
    attr_table = Array.init n attrs;
    source_version;
    by_label = Atomic.make None;
  }

let of_digraph g =
  build ~n:(Digraph.node_count g) ~out_degree:(Digraph.out_degree g)
    ~iter_succ:(Digraph.iter_succ g) ~label:(Digraph.label g) ~attrs:(Digraph.attrs g)
    ~source_version:(Digraph.version g)

let induced g ~nodes ~inner ~local =
  let n = Array.length nodes in
  if inner < 0 || inner > n then invalid_arg "Csr.induced: inner outside the node set";
  let local w =
    let j = local w in
    if j < 0 || j >= n then invalid_arg "Csr.induced: successor outside the node set";
    j
  in
  let offsets = g.fwd_offsets and targets = g.fwd_targets in
  build ~n
    ~out_degree:(fun i ->
      if i < inner then offsets.(nodes.(i) + 1) - offsets.(nodes.(i)) else 0)
    ~iter_succ:(fun i f ->
      if i < inner then
        for j = offsets.(nodes.(i)) to offsets.(nodes.(i) + 1) - 1 do
          f (local targets.(j))
        done)
    ~label:(fun i -> g.labels.(nodes.(i)))
    ~attrs:(fun i -> g.attr_table.(nodes.(i)))
    ~source_version:g.source_version

let node_count t = t.n

let edge_count t = t.m

let source_version t = t.source_version

let check t v = if v < 0 || v >= t.n then invalid_arg "Csr: unknown node"

let label t v =
  check t v;
  t.labels.(v)

let attrs t v =
  check t v;
  t.attr_table.(v)

let out_degree t v =
  check t v;
  t.fwd_offsets.(v + 1) - t.fwd_offsets.(v)

let in_degree t v =
  check t v;
  t.rev_offsets.(v + 1) - t.rev_offsets.(v)

let iter_succ t v f =
  check t v;
  for i = t.fwd_offsets.(v) to t.fwd_offsets.(v + 1) - 1 do
    f t.fwd_targets.(i)
  done

let iter_pred t v f =
  check t v;
  for i = t.rev_offsets.(v) to t.rev_offsets.(v + 1) - 1 do
    f t.rev_sources.(i)
  done

(* One BFS step over a slice: unmarked cells are marked and queued.  The
   int annotations matter: left polymorphic, [<>] would be a call to the
   generic compare and each store would go through [caml_modify]. *)
let enqueue offsets cells t v ~(mark : int array) ~(stamp : int) ~(queue : int array) tail =
  check t v;
  let tail = ref tail in
  for i = offsets.(v) to offsets.(v + 1) - 1 do
    let w = cells.(i) in
    if mark.(w) <> stamp then begin
      mark.(w) <- stamp;
      queue.(!tail) <- w;
      incr tail
    end
  done;
  !tail

let enqueue_succ t v ~mark ~stamp ~queue tail =
  enqueue t.fwd_offsets t.fwd_targets t v ~mark ~stamp ~queue tail

let enqueue_pred t v ~mark ~stamp ~queue tail =
  enqueue t.rev_offsets t.rev_sources t v ~mark ~stamp ~queue tail

let succ_array t v =
  check t v;
  Array.sub t.fwd_targets t.fwd_offsets.(v) (out_degree t v)

let fold_succ t v f acc =
  check t v;
  let acc = ref acc in
  for i = t.fwd_offsets.(v) to t.fwd_offsets.(v + 1) - 1 do
    acc := f !acc t.fwd_targets.(i)
  done;
  !acc

let exists_succ t v p =
  check t v;
  let rec loop i = i < t.fwd_offsets.(v + 1) && (p t.fwd_targets.(i) || loop (i + 1)) in
  loop t.fwd_offsets.(v)

let has_edge t u v = exists_succ t u (Int.equal v)

let iter_nodes t f =
  for v = 0 to t.n - 1 do
    f v
  done

let iter_edges t f = iter_nodes t (fun u -> iter_succ t u (fun v -> f u v))

let nodes_with_label t l =
  let table =
    match Atomic.get t.by_label with
    | Some table -> table
    | None ->
      let table = Hashtbl.create 16 in
      (* Build in reverse so each bucket ends up in increasing node order. *)
      for v = t.n - 1 downto 0 do
        let l = t.labels.(v) in
        let bucket = Option.value ~default:[] (Hashtbl.find_opt table l) in
        Hashtbl.replace table l (v :: bucket)
      done;
      (* Concurrent forcers may both build (the content is identical
         either way); the CAS loser adopts the winner's table so all
         domains share one memo from then on. *)
      if Atomic.compare_and_set t.by_label None (Some table) then table
      else (
        match Atomic.get t.by_label with Some t' -> t' | None -> table)
  in
  Option.value ~default:[] (Hashtbl.find_opt table l)

let patched t ~source_version ~added ~removed =
  let n = t.n in
  let check_pair (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Csr.patched: unknown node"
  in
  List.iter check_pair added;
  List.iter check_pair removed;
  (* Added/removed lists come from [Update.net_edge_changes]-style net
     deltas: each added edge must be absent from [t], each removed edge
     present, and no pair may appear twice.  Degrees are computed from
     the delta, so a violated precondition is caught below when a row's
     skip count disagrees. *)
  let bucket tbl k x =
    Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let add_out = Hashtbl.create 16 and add_in = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      bucket add_out u v;
      bucket add_in v u)
    added;
  let del_out = Hashtbl.create 16 and del_in = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      bucket del_out u v;
      bucket del_in v u)
    removed;
  let m = t.m + List.length added - List.length removed in
  if m < 0 then invalid_arg "Csr.patched: more removals than edges";
  let delta tbl v = match Hashtbl.find_opt tbl v with None -> 0 | Some l -> List.length l in
  (* One direction: rows without a deletion are copied whole, the few
     with one are filtered against that row's deletions; insertions are
     appended. *)
  let patch_rows ~old_offsets ~old_cells ~adds ~dels =
    let offsets = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      let d = old_offsets.(v + 1) - old_offsets.(v) + delta adds v - delta dels v in
      if d < 0 then invalid_arg "Csr.patched: removed edge not present";
      offsets.(v + 1) <- offsets.(v) + d
    done;
    let cells = Array.make (max m 1) 0 in
    for v = 0 to n - 1 do
      let lo = old_offsets.(v) and hi = old_offsets.(v + 1) in
      let pos =
        match Hashtbl.find_opt dels v with
        | None ->
          Array.blit old_cells lo cells offsets.(v) (hi - lo);
          offsets.(v) + hi - lo
        | Some gone ->
          let present = ref 0 in
          for i = lo to hi - 1 do
            if List.mem old_cells.(i) gone then incr present
          done;
          if !present <> List.length gone then
            invalid_arg "Csr.patched: removed edge not present";
          let pos = ref offsets.(v) in
          for i = lo to hi - 1 do
            let w = old_cells.(i) in
            if not (List.mem w gone) then begin
              cells.(!pos) <- w;
              incr pos
            end
          done;
          !pos
      in
      let pos =
        List.fold_left
          (fun pos w ->
            cells.(pos) <- w;
            pos + 1)
          pos
          (Option.value ~default:[] (Hashtbl.find_opt adds v))
      in
      if pos <> offsets.(v + 1) then invalid_arg "Csr.patched: inconsistent delta"
    done;
    (offsets, cells)
  in
  let fwd_offsets, fwd_targets =
    patch_rows ~old_offsets:t.fwd_offsets ~old_cells:t.fwd_targets ~adds:add_out ~dels:del_out
  in
  let rev_offsets, rev_sources =
    patch_rows ~old_offsets:t.rev_offsets ~old_cells:t.rev_sources ~adds:add_in ~dels:del_in
  in
  {
    n;
    m;
    fwd_offsets;
    fwd_targets;
    rev_offsets;
    rev_sources;
    (* Node tables are physically shared: edge deltas cannot change
       labels or attributes, and the label-bucket memo only depends on
       the (shared) label array — the memo cell itself is shared, so a
       bucket table built under any epoch serves them all. *)
    labels = t.labels;
    attr_table = t.attr_table;
    source_version;
    by_label = t.by_label;
  }

let to_digraph t =
  let g = Digraph.create ~capacity:t.n () in
  for v = 0 to t.n - 1 do
    ignore (Digraph.add_node g ~attrs:t.attr_table.(v) t.labels.(v) : int)
  done;
  iter_edges t (fun u v -> ignore (Digraph.add_edge g u v : bool));
  g
