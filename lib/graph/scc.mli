(** Strongly connected components (Tarjan, iterative).

    [expfinder stats] prints the component count of a data graph. *)

type t

val compute : Csr.t -> t

val count : t -> int
(** Number of components. *)

val component : t -> int -> int
(** [component t v] is the id of [v]'s component, in [0 .. count-1].
    No order of the ids is guaranteed. *)

val members : t -> int -> int list
(** Nodes of a component. *)

val component_size : t -> int -> int
