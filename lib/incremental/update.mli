open Expfinder_graph

(** Graph updates ΔG.

    The demo exercises unit updates (a single edge insertion or deletion)
    and batch updates (a list of them); node insertion is supported as
    well for completeness.  Generators produce random update streams for
    the incremental-vs-batch experiments. *)

type t =
  | Insert_edge of int * int
  | Delete_edge of int * int
  | Insert_node of Label.t * Attrs.t

val apply : Digraph.t -> t -> bool
(** Apply one update; [false] when it was a no-op (edge already present /
    already absent).  Node insertion always succeeds. *)

val apply_batch : Digraph.t -> t list -> int
(** Apply in order; returns the number of effective updates. *)

val apply_batch_filtered : Digraph.t -> t list -> t list
(** Apply in order; returns the sublist of effective updates (no-ops such
    as inserting an existing edge are dropped).
    @raise Invalid_argument, before applying anything, when an edge
    update names a node absent from the graph at its point in the
    batch. *)

val net_edge_changes : Digraph.t -> t list -> (int * int) list * (int * int) list
(** [net_edge_changes g effective] is [(inserted, deleted)]: the edges
    whose presence differs between the pre-batch and post-batch graph,
    given the post-batch graph [g] and the {e effective} update list.
    Toggled edges (inserted then deleted, or vice versa) cancel out. *)

val invert : t -> t option
(** The update undoing an edge update ([None] for node insertion). *)

val touched_sources : t list -> int list
(** Source endpoints of the edge updates (deduplicated) — the seeds of
    the affected-area computation.  Inserted nodes are not included (a
    fresh node has no edges, so only later edge updates matter). *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Expfinder_telemetry.Json.t
(** The wire form shared by the query log, the serve protocol and the
    replay driver: [{"op": "+"|"-", "u": int, "v": int}] for edge
    updates, [{"op": "node", "label": string, "attrs": {..}}] (attrs as
    {!Expfinder_graph.Attr.to_string} strings) for node insertion. *)

val of_json : Expfinder_telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}; the error says which field is malformed. *)

(* Random update streams (deterministic from the Prng). *)

val random_insertions : Prng.t -> Digraph.t -> int -> t list
(** [k] edge insertions between existing nodes, avoiding existing edges
    and each other (best effort: gives up on a dense graph). *)

val random_deletions : Prng.t -> Digraph.t -> int -> t list
(** [k] distinct existing edges to delete ([k] capped at the edge
    count). *)

val random_mixed : Prng.t -> Digraph.t -> int -> t list
(** Roughly half insertions, half deletions, interleaved. *)
