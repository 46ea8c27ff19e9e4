(** Breadth-first traversal over a CSR snapshot's reversed edges. *)

type node = int

val bfs_rev : Csr.t -> node list -> (node -> int -> unit) -> unit
(** [bfs_rev g sources f] calls [f v d] once for every node [v] that
    reaches a source, in order of [d], its hop distance to the nearest
    source (0 for the sources themselves): the ancestors of the
    sources.  @raise Invalid_argument on a source out of range. *)
