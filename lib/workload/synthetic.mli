open Expfinder_graph

(** Synthetic data graphs (§III "we design a synthetic graph generator to
    generate arbitrarily large graphs").

    Two families:

    - {!flat}: Erdős–Rényi-style collaboration graphs with a small label
      alphabet of professional fields and integer experience attributes.
      Used by the query-scaling and incremental experiments.
    - {!org}: organisational networks — teams of role-labelled workers
      around managers, managers reporting to directors.  Team members of
      the same role and seniority bucket are behaviourally identical, so
      these graphs carry the heavy structural redundancy that the
      compression experiments rely on (the paper reports 57% average
      reduction on its datasets). *)

val fields : string array
(** The label alphabet: SA, SD, BA, ST, PM, QA, DBA, UX. *)

val flat : Prng.t -> n:int -> avg_degree:int -> Digraph.t
(** Random collaboration graph: [n] nodes, [n * avg_degree] edges,
    uniform field labels, [exp] uniform in [0..10]. *)

val org : ?cross_p:float -> Prng.t -> teams:int -> team_size:int -> Digraph.t
(** Organisational graph: [teams] managers (PM), each with [team_size]
    workers of random roles and seniority buckets; workers point to their
    manager, managers and one of a few directors (SA) point to each
    other, and each worker carries one extra cross-team collaboration
    edge with probability [cross_p] (default 0.5, which lands the
    bisimulation compression at the paper's ~57%).  Node count is
    [teams * (team_size + 1) + ceil(teams/16)]. *)

val exp_of : Digraph.t -> int -> int
(** The [exp] attribute of a node (0 when missing). *)
