(** Strongly connected components (Tarjan, iterative).

    [expfinder stats] prints the component count of a data graph. *)

type t

val compute : Csr.t -> t

val count : t -> int
(** Number of components. *)
