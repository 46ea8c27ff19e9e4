(** Deterministic work meters.

    Incremental maintenance chooses, per query and per update batch,
    between a sparse sync and a dense recomputation by comparing the work
    each would do.  Work is counted in the loops the engines already run
    — BFS node visits ({!Distance.visits}) and adjacency entries
    scanned by the simulation engines — never in wall-clock time, so the
    choice, and everything that depends on it, is reproducible.

    A meter accumulates work and may carry a limit: the charge that
    takes it past the limit raises {!Exhausted}, which is how a sparse
    sync stops as soon as it has spent more than a recomputation would
    cost. *)

type t

exception Exhausted

val create : ?limit:int -> unit -> t
(** A fresh meter at zero.  Without [?limit] it never raises. *)

val charge : t -> int -> unit
(** Add work.  @raise Exhausted when the total passes the limit (the
    work is still recorded). *)

val spent : t -> int

val limit : t -> int
