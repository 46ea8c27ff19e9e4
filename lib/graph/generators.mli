(** Random graph structure generators.

    Structure only: each generator takes a [node_init] callback mapping a
    node index to its label and attributes, so workload modules decide the
    labelling/attribute distributions (§III "synthetic graph generator").
    All generators are deterministic given the {!Prng.t}. *)

type node_init = int -> Label.t * Attrs.t

val erdos_renyi : Prng.t -> n:int -> m:int -> node_init -> Digraph.t
(** Uniform random simple digraph with [n] nodes and (up to) [m] edges;
    duplicate draws are retried, so the result has exactly [m] edges
    whenever [m <= n*(n-1)]. *)
