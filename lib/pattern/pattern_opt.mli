(** Pattern-query minimisation (from the PVLDB 2010 paper underlying the
    demo: smaller equivalent queries evaluate faster).

    {!minimise} merges {e duplicate} pattern nodes — same name-
    irrelevant spec (label requirement and predicate) and identical
    outgoing edges (same targets, same bounds) — to a fixpoint,
    redirecting incoming edges (parallel edges keep the tighter bound).
    The rewritten query has {e the same matches} for every surviving
    pattern node on every data graph, and the same output matches;
    generated and hand-written team queries often contain such
    duplicates ("two developers of the same kind"). *)

val minimise : Pattern.t -> Pattern.t * int array
(** [minimise q] is [(q', renaming)] with [renaming.(u)] the node of
    [q'] that represents [u].  [q'] equals [q] when nothing merged. *)

val merges : Pattern.t -> (Pattern.pnode * Pattern.pnode list) list
(** The merge decisions {!minimise} makes, as [(leader, merged)] groups
    over the {e original} node ids: every node of [merged] is folded
    into [leader] (the group's lowest id).  Empty when nothing merges.
    Qlint ({!Pattern_analysis.analyze}) renders these as named
    [duplicate-node] diagnostics. *)
