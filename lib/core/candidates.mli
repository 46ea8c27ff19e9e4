open Expfinder_graph
open Expfinder_pattern

(** Candidate-set construction.

    The starting point of every matching algorithm: for each pattern node
    [u], the set of data nodes whose label and attributes satisfy [u]'s
    search conditions (condition (2)(a) of the bounded-simulation
    definition).  Uses the snapshot's label index when the pattern node
    has a concrete label: each pattern node costs one traversal of its
    label bucket, or of the whole node table when it is unlabelled
    (counted by [candidates.scans]). *)

val scan : Snapshot.t -> Pattern.node_spec -> (int -> unit) -> unit
(** [scan g spec f] calls [f] on every node of [spec]'s label bucket, or
    on every node when [spec] is unlabelled, and counts one
    [candidates.scans]. *)

val compute : Pattern.t -> Snapshot.t -> Match_relation.t
(** The full candidate relation (not yet refined by edge constraints). *)
