(** Qlint — static analysis of pattern queries (no data graph needed).

    The planner discovers an empty or degenerate query only after
    materialising candidate sets; most of those queries can be rejected
    or simplified by looking at the pattern alone.  This module provides
    the reasoning layers, cheapest first:

    - {e predicate satisfiability} ({!statically_empty}): interval reasoning
      over the [Eq]/[Ne]/[Lt]/[Le]/[Gt]/[Ge] integer atoms plus
      equality/disequality conflict detection over strings, so
      [exp>=5 && exp<3] or [specialty="DBA" && specialty="SA"] is
      recognised as unsatisfiable.  Two atoms of different value types on
      the same attribute are also unsatisfiable: a stored value has one
      runtime type, and a mistyped comparison never holds (see
      {!Predicate.eval});
    - {e predicate implication} ({!implies}) and the induced
      simplification ({!simplify}) and node subsumption ({!subsumes});
    - {e structural lints} ({!analyze}): disconnected patterns,
      unconstrained nodes, bound-subsumed parallel paths, duplicate
      nodes (via {!Pattern_opt.merges});
    - {e query containment} ({!contains}): [Q1 ⊑ Q2] via simulation on
      the two pattern graphs with implication on the predicates.

    The implication lattice is deliberately incomplete: it decides
    everything expressible as per-attribute integer intervals with
    excluded points, string equality/disequality, syntactic atom
    equality, and consequences of an [Eq] pin; it does {e not} reason
    across attributes or over float/bool orderings.  [implies]/
    [contains] answering [false] therefore means "not provably", and
    every [true] is sound. *)

type severity = Error | Warning | Info
(** [Error]: the query can never match anything as written.  [Warning]:
    almost certainly not what the author meant.  [Info]: redundancy the
    evaluator will pay for but tolerate. *)

type diagnostic = {
  code : string;  (** stable lint identifier, e.g. ["unsat-predicate"] *)
  severity : severity;
  node : Pattern.pnode option;  (** anchor node, when the lint has one *)
  message : string;
  fixup : string option;  (** suggested rewrite, human-readable *)
}

val pp_diagnostic : Pattern.t -> Format.formatter -> diagnostic -> unit
(** [error[unsat-predicate] node SA: ... (fix: ...)]. *)

(** {1 Predicate reasoning} *)

val implies : Predicate.t -> Predicate.t -> bool
(** [implies p q]: every attribute record satisfying [p] satisfies [q].
    Sound, not complete (see the lattice note above).  An unsatisfiable
    [p] implies everything. *)

val simplify : Predicate.t -> Predicate.t
(** Drop every atom implied by the remaining ones, e.g.
    [exp>=3 && exp>=5] becomes [exp>=5].  Satisfiability is unchanged;
    unsatisfiable predicates are returned as written. *)

val subsumes : Pattern.node_spec -> Pattern.node_spec -> bool
(** [subsumes a b]: every data node satisfying [b]'s label requirement
    and predicate also satisfies [a]'s (i.e. [a] is the weaker spec). *)

(** {1 Structural analysis} *)

val statically_empty : Pattern.t -> bool
(** The kernel of this pattern is empty on {e every} data graph (some
    node's predicate is unsatisfiable) — the planner's fast path. *)

val analyze : Pattern.t -> diagnostic list
(** All diagnostics, most severe first:

    - [unsat-predicate] (error): a node's conditions contradict;
    - [mixed-type-atoms] (error): one attribute compared against two
      value types;
    - [disconnected] (warning): the pattern splits into independent
      components, so matches are unrelated cross products;
    - [unconstrained-node] (warning): wildcard label and [always]
      predicate — the node matches every data node;
    - [redundant-atom] (info): an atom implied by the node's others;
    - [duplicate-node] (info): {!Pattern_opt.minimise} would merge the
      node into another (reported with node names);
    - [subsumed-edge] (info): a direct edge implied by a parallel
      two-edge path with a tighter total bound. *)

(** {1 Query containment} *)

val contains : Pattern.t -> Pattern.t -> bool
(** [contains q1 q2]: [Q1 ⊑ Q2] — on every data graph, [M(Q1,G)] is
    inside [M(Q2,G)]: if [Q1] matches at all then so does [Q2], and
    every match of [Q1]'s output node is a match of [Q2]'s.  Decided by
    computing the maximal simulation of [q2]'s pattern graph by [q1]'s
    (edge bounds must widen, predicates must imply) and requiring it to
    be total on [q2] and to relate the output nodes.  Sound, not
    complete. *)

val superset_map : sub:Pattern.t -> sup:Pattern.t -> int array option
(** When every node of [sub] is related to some node of [sup] by the
    containment simulation, [Some m] with [m.(u)] a [sup]-node whose
    matches over-approximate [u]'s: [kernel sub u ⊆ kernel sup m.(u)] on
    every graph.  The engine uses a cached [kernel sup] to seed
    refinement of [sub] instead of scanning the whole graph. *)
