(** Dead-export analysis over compiler-emitted typedtrees.

    The second pass of [lib/analysis], on {!Dsafe}'s [.cmt]/[.cmti]
    walker ({!Dsafe.read_units}).  It collects every [val] of every
    library interface under the roots, nested module signatures
    included, and every [Texp_ident] of every implementation under the
    same roots.  An export is {e dead} when no implementation outside
    its own compilation unit references it.

    References are matched by the declaration's [Shape.Uid], which a
    value keeps whatever path reaches it: dune's wrapped aliases
    ([Expfinder_graph.Traversal] for [Expfinder_graph__Traversal]),
    local aliases ([module T = Expfinder_telemetry]) and [open] all
    resolve to the interface's uid.  A whole module passed as a functor
    argument, packed as a first-class module or [include]d is not
    followed; the tree has none.

    Roots decide what counts: [make lint-dead] scans [lib/], [bin/],
    [bench/], [perfbench/] and [examples/] but not [test/], so an export
    only a test calls is dead.  Findings are gated against
    [lint/dead.allow] with {!Dsafe}'s ratchet and allow-file format. *)

type export = {
  id : string;  (** stable key: ["<interface-file>:<Module.value>"] *)
  file : string;  (** workspace-relative [.mli] path *)
  line : int;
}

(** Why an allowlisted export stays although nothing in the scanned
    roots calls it. *)
type reason =
  | Cli  (** a documented CLI flag needs it *)
  | Readme  (** a README workflow uses it *)
  | Experiment  (** an [EXPERIMENTS.md] row needs it *)
  | Test_seam  (** the named test cannot reach the behaviour otherwise *)

val reasons : (string * reason) list
(** Every reason by its allow-file tag. *)

val scan : roots:string list -> export list
(** The dead exports under [roots], sorted by (file, line, id). *)

val has_implementations : string -> bool
(** Whether a root holds any [.cmt]: executables leave theirs only after
    [dune build @check], and a root without them would hide every
    reference it makes. *)

val gate : allow:reason Dsafe.entry list -> export list -> (export, reason) Dsafe.verdict

val pp_table : Format.formatter -> (export, reason) Dsafe.verdict -> unit
(** Human-readable report grouped by gate outcome. *)
