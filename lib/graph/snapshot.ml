type node = int

type identity = { graph_id : int; epoch : int }

let identity_equal a b = a.graph_id = b.graph_id && a.epoch = b.epoch

let pp_identity ppf id = Format.fprintf ppf "g%d@%d" id.graph_id id.epoch

type t = {
  csr : Csr.t;
  graph_id : int;
  (* Label histogram: the memo cell is shared across epochs of the same
     graph by [advance] (edge deltas cannot change labels), built on
     first planner estimate.  An Atomic option rather than [Lazy.t]:
     [Lazy.force] is not safe across domains, while the
     race-then-adopt-the-winner protocol is (both builders produce the
     identical table). *)
  label_counts : (Label.t, int) Hashtbl.t option Atomic.t;
  (* Degree statistics depend on edges, so each epoch gets its own
     cell.  Atomic for safe cross-domain publication; a duplicate
     computation under a race is benign and identical. *)
  max_out : int option Atomic.t;
}

let of_csr ?graph_id csr =
  let graph_id = match graph_id with Some id -> id | None -> Graph_id.fresh () in
  { csr; graph_id; label_counts = Atomic.make None; max_out = Atomic.make None }

let of_digraph g = of_csr ~graph_id:(Digraph.graph_id g) (Csr.of_digraph g)

let advance t ~version ~added ~removed =
  let csr = Csr.patched t.csr ~source_version:version ~added ~removed in
  { csr; graph_id = t.graph_id; label_counts = t.label_counts; max_out = Atomic.make None }

let csr t = t.csr

let graph_id t = t.graph_id

let epoch t = Csr.source_version t.csr

let id t = { graph_id = t.graph_id; epoch = epoch t }

let pp_id ppf t = pp_identity ppf (id t)

(* Read interface: straight delegation to the underlying CSR. *)

let node_count t = Csr.node_count t.csr

let edge_count t = Csr.edge_count t.csr

let label t v = Csr.label t.csr v

let attrs t v = Csr.attrs t.csr v

let out_degree t v = Csr.out_degree t.csr v

let in_degree t v = Csr.in_degree t.csr v

let iter_succ t v f = Csr.iter_succ t.csr v f

let iter_pred t v f = Csr.iter_pred t.csr v f

let has_edge t u v = Csr.has_edge t.csr u v

let iter_nodes t f = Csr.iter_nodes t.csr f

let iter_edges t f = Csr.iter_edges t.csr f

let nodes_with_label t l = Csr.nodes_with_label t.csr l

let label_count t l =
  let table =
    match Atomic.get t.label_counts with
    | Some table -> table
    | None ->
      let table = Hashtbl.create 16 in
      Csr.iter_nodes t.csr (fun v ->
          let l = Csr.label t.csr v in
          Hashtbl.replace table l
            (1 + Option.value ~default:0 (Hashtbl.find_opt table l)));
      if Atomic.compare_and_set t.label_counts None (Some table) then table
      else (
        match Atomic.get t.label_counts with Some t' -> t' | None -> table)
  in
  Option.value ~default:0 (Hashtbl.find_opt table l)

let to_digraph t = Csr.to_digraph t.csr
