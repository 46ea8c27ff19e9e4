(** Deterministic pseudo-random number generator (splitmix64).

    All randomised components of the library (graph generators, query
    workloads, update streams, property tests) draw from an explicit
    [Prng.t] so that every experiment is reproducible from a seed, without
    depending on the global [Random] state. *)

type t

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument
    when [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n)] (Floyd's algorithm); the result is in arbitrary order.
    @raise Invalid_argument when [k > n] or [k < 0]. *)
