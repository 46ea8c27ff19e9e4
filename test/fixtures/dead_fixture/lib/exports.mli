(** Exports of the dead-export fixture, one per case. *)

val unused : unit -> int
(** Nothing references it: reported. *)

val self_only : unit -> int
(** Used only inside exports.ml: reported. *)

val via_alias : unit -> int
(** Used only through [module E = Exports] in user.ml. *)

val via_open : unit -> int
(** Used only under [open Exports] in user.ml. *)

val via_bin : unit -> int
(** Used only by the bin/-style executable. *)

val via_test : unit -> int
(** Used only by the test/-style library: reported. *)

module Inner : sig
  val nested_used : unit -> int
  (** Used through the nested path from user.ml. *)

  val nested_unused : unit -> int
  (** Reported under its nested name. *)
end
