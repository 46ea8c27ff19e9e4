open Expfinder_graph

(** Twitter-fraction substitute (§III: "we use a fraction of Twitter").

    The real trace is not available in this environment, so the module
    generates a scale-free follower graph with the properties the
    experiments rely on: power-law in-degrees (preferential attachment),
    a small set of professional-interest labels, and follower-count /
    experience attributes correlated with popularity.  Seeded generation
    makes every experiment reproducible. *)

val generate : Prng.t -> n:int -> Digraph.t
(** [n]-user follower graph: active users follow ~4 earlier users chosen
    preferentially; about half of the users are lurkers following a
    single popular account (the compressible fringe real follower graphs
    have).  Attributes: ["exp"] in [0..10] (skewed up for popular
    accounts), ["followers"] filled in post hoc, ["name"] = ["user<i>"]. *)
