open Expfinder_graph

(** Search conditions on pattern nodes.

    A predicate is a conjunction of atomic comparisons over node
    attributes, e.g. [experience >= 5 && specialty = "DBA"] — the
    "search conditions" of §II.  A comparison over a missing attribute or
    an attribute of a different runtime type evaluates to [false] (never
    to an error), so malformed data simply fails to match. *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type atom = { attr : string; op : op; value : Attr.t }

type t

val always : t
(** The empty conjunction: holds on every node. *)

val of_atoms : atom list -> t

val atoms : t -> atom list

val conj : t -> t -> t

(* Sugar for the common cases. *)

val eq_str : string -> string -> t
val ge_int : string -> int -> t
val eval : t -> Attrs.t -> bool

val is_always : t -> bool

val op_to_string : op -> string
(** ["="], ["!="], ["<"], ["<="], [">"], [">="]. *)

val op_of_string : string -> op option

val pp : Format.formatter -> t -> unit
(** [exp>=5 && specialty=DBA]; [true] for the empty conjunction. *)
