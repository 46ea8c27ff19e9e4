open Expfinder_graph
open Expfinder_pattern

(** Result graphs.

    The paper represents M(Q,G) as a weighted {e result graph} Gr: one
    node per matched data node, and, for every pattern edge [(u,u')] with
    bound [k] and matches [v ∈ sim(u)], [v' ∈ sim(u')] with
    [0 < dist(v,v') <= k], an edge [(v,v')] weighted by the shortest-path
    length [dist(v,v')].  Gr is both what the GUI visualises and the
    input of the social-impact ranking.

    Gr is stored as forward and reverse compressed adjacency arrays over
    compact node indices, written once by {!build}. *)

type t

type adjacency = private {
  offsets : int array;  (** length [node_count + 1] *)
  targets : int array;
  weights : int array;
}
(** The edges of compact index [i] are positions
    [offsets.(i) .. offsets.(i+1) - 1] of [targets] and [weights].
    Shared with [t]: read-only. *)

val build : Pattern.t -> Snapshot.t -> Match_relation.t -> t
(** Builds Gr for a kernel relation (empty relation gives an empty Gr).
    A data pair witnessed by several pattern edges is one edge carrying
    the minimum witness distance. *)

val node_count : t -> int

val edge_count : t -> int

val data_nodes : t -> int list
(** The matched data nodes, ascending. *)

val mem_data_node : t -> int -> bool

val index_of : t -> int -> int option
(** Compact index of a data node in the underlying weighted graph. *)

val data_node_of : t -> int -> int
(** Inverse of {!index_of}. *)

val pattern_nodes_of : t -> int -> int list
(** Which pattern nodes a data node matches. *)

val forward : t -> adjacency
(** Out-edges over compact indices. *)

val backward : t -> adjacency
(** In-edges over compact indices: [targets] holds the edge sources. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [f v v' d] over data-node ids and shortest-path weights. *)

val weight : t -> int -> int -> int option
(** Weight between two data nodes, if the edge exists. *)

val to_dot : ?name:string -> ?highlight:int list -> Pattern.t -> Snapshot.t -> t -> string
(** GraphViz rendering with match names and distances (Fig. 5 style);
    [highlight] lists data nodes to fill red (e.g. the top-1 expert). *)

(** Roll-up / drill-down views (§III: "the users can drill down to see
    detailed information in a result graph, and can roll up to view its
    global structure"). *)

type edge_stats = {
  source : int;  (** pattern node *)
  target : int;  (** pattern node *)
  realised : int;  (** result edges witnessing this pattern edge *)
  min_dist : int;  (** shortest witness path (0 when none) *)
  avg_dist : float;
}

type summary = {
  match_counts : int array;  (** per pattern node *)
  edge_summaries : edge_stats list;  (** one per pattern edge *)
}

val roll_up : Pattern.t -> t -> summary
(** The global structure: match counts per pattern node and witness
    statistics per pattern edge. *)

val pp_summary : Pattern.t -> Format.formatter -> summary -> unit

type detail = {
  data_node : int;
  display : string;  (** the node's ["name"] attribute or ["#id"] *)
  roles : int list;  (** pattern nodes it matches *)
  out_edges : (int * int) list;  (** (data node, distance) in Gr *)
  in_edges : (int * int) list;
}

val drill_down : Pattern.t -> Snapshot.t -> t -> int -> detail list
(** Per-match detail for one pattern node's matches, ascending by data
    node id. *)

val pp_detail : Format.formatter -> detail -> unit
