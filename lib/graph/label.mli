(** Interned node labels.

    Labels (the "field" of a person in the paper — system architect,
    system developer, ...) are interned to small integers so that label
    comparison during matching and partition refinement is O(1).  The
    intern table is process-global and append-only; interning is
    deterministic within a run. *)

type t = private int

val of_string : string -> t
(** Intern a string, returning its symbol.  Idempotent. *)

val to_string : t -> string
(** @raise Invalid_argument on a symbol that was never interned. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_int : t -> int
(** The raw symbol, usable as an array index (symbols are dense from 0). *)

val pp : Format.formatter -> t -> unit
