(** Social-impact ranking and top-K selection (§II Results Ranking).

    The rank of a match [v] of the output node is the average distance
    between [v] and the other result-graph nodes connected to it:

    {v f(u_o, v) = (Σ_u dist(u,v) + Σ_u' dist(v,u')) / |V'_r| v}

    where the sums range over nodes that reach [v] / are reached from [v]
    in Gr, and [|V'_r|] counts a node once {e per direction} of
    connectivity (ancestors + descendants): the paper's worked values
    — f(SA,Bob) = (1+1+2+3+2)/5 with only four distinct neighbours, and
    f(SA,Walt) = (2+2+3)/3 — force this reading.  Smaller is better
    (stronger social impact).  Ranks are exact rationals so the paper's
    values (9/5, 7/3) are testable without float noise. *)

type rank = { num : int; den : int }
(** [den = 0] encodes +∞ (a match with no social context). *)

val rank_to_float : rank -> float

val compare_rank : rank -> rank -> int
(** Total order: finite ranks by value, +∞ last. *)

val pp_rank : Format.formatter -> rank -> unit
(** [9/5 (1.80)] style. *)

val rank_of : Result_graph.t -> int -> rank
(** [rank_of gr v] for a data node [v] of the result graph: the
    single-match call of the {!top_k} kernel, with no cutoff.
    @raise Invalid_argument when [v] is not in Gr. *)

val top_k : Result_graph.t -> output_matches:int list -> k:int -> (int * rank) list
(** The [k] matches with minimum rank (all of them when [k] exceeds the
    match count), sorted by ascending rank, ties broken by node id.

    Cost: the matches are ranked in [output_matches] order, in batches
    of up to [Sys.int_size] (63) that share one level-synchronous search
    over Gr's (node, direction) states, each match owning one bit of
    every word.  A batch visits a state once per distinct distance at
    which its matches reach it and relaxes its edges once for all of
    them.  Working memory is O((C + 1)·|Vr|) words, C the largest edge
    weight, allocated once per call.  Each batch after the first is
    bounded by the K-th best (rank, id) of the matches ranked before it:
    at the end of a level, a match is dropped once the average of its
    settled distances — a lower bound on its rank — passes that bound;
    the answer is the same as ranking every match.  Counts ranked and
    dropped matches in the [ranking.ranked]/[ranking.pruned] counters
    and as [ranked]/[pruned] annotations on the innermost open span.
    @raise Invalid_argument when [k < 0] or a match is not in Gr. *)
