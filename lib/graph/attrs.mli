(** Per-node attribute records.

    A small immutable map from attribute names to {!Attr.t} values, stored
    as a sorted association list (nodes carry a handful of attributes, so
    a list beats a hashtable on both memory and speed). *)

type t

val empty : t

val of_list : (string * Attr.t) list -> t
(** Later bindings win over earlier bindings for duplicate names. *)

val to_list : t -> (string * Attr.t) list
(** Bindings sorted by name. *)

val find : t -> string -> Attr.t option

val equal : t -> t -> bool

val union : t -> t -> t
(** [union a b] contains all bindings of both; [b] wins on conflicts. *)

(* Convenience constructors used pervasively by workloads and tests. *)

val int : string -> int -> string * Attr.t
val str : string -> string -> string * Attr.t
