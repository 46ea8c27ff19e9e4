open Expfinder_graph

(** Random pattern-query workloads.

    Follows the methodology of the underlying papers: a query is a small
    connected pattern whose node labels are drawn from the data graph's
    label universe, with random bounds and optional attribute conditions.
    Node 0 is the output node and every node is reachable from it, so the
    query reads as "find experts of kind [labels.(0)] embedded in this
    team structure". *)

type config = {
  nodes : int;  (** number of pattern nodes, >= 1 *)
  extra_edges : int;  (** edges beyond the spanning arborescence *)
  max_bound : int;  (** bounds drawn uniformly from [1 .. max_bound] *)
  unbounded_prob : float;  (** probability an edge is [*] instead *)
  condition_prob : float;  (** probability a node gets an attribute condition *)
  condition_attr : string;  (** integer attribute to constrain, e.g. "exp" *)
  condition_range : int * int;  (** condition is [attr >= k], k uniform in range *)
}

val default : config
(** 4 nodes, 1 extra edge, bounds up to 3, no unbounded edges, 50%
    conditions on ["exp"] in [0..5]. *)

val generate_many : Prng.t -> config -> labels:Label.t array -> int -> Pattern.t list

val simulation_config : config -> config
(** Same shape but all bounds forced to 1 (plain-simulation workload). *)
