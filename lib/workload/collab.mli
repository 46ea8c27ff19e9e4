open Expfinder_graph
open Expfinder_pattern

(** The paper's running example: the Fig. 1 collaboration network and
    pattern queries.

    The published figure is not machine-readable, so the graph is
    reconstructed here to satisfy {e every} fact stated in the text:

    - Example 1: M(Q,G) = {(SA,Bob), (SA,Walt), (BA,Jean), (SD,Mat),
      (SD,Dan), (SD,Pat), (ST,Eva)};
    - the SA→BA pattern edge is witnessed by a length-3 path from Bob to
      Jean;
    - Example 2: f(SA,Bob) = (1+1+2+3+2)/5 = 9/5 and
      f(SA,Walt) = (2+2+3)/3 = 7/3, so Bob is the top-1 SA;
    - Example 3: inserting edge [e1] yields exactly ΔM = {(SD,Fred)};
    - Fred and Pat are both DBAs collaborating with ST and BA people.

    Pattern bounds are the figure's {2, 2, 3, 1}: SA→SD (2), SD→SA (2),
    SA→BA (3), ST→BA (1). *)

val graph : unit -> Digraph.t
(** Fresh copy of the 9-person collaboration network (without [e1]). *)

val e1 : int * int
(** The edge of Example 3 ([Fred -> Bill]); inserting it gives Fred a
    system architect within 2 hops. *)

val query : unit -> Pattern.t
(** The pattern query Q of Fig. 1(a); output node SA. *)

(* Node ids, for tests and examples. *)

val walt : int
val bob : int
val jean : int
val dan : int
val mat : int
val pat : int
val fred : int
val eva : int

val name_of : int -> string
(** Person name of a node id.  @raise Invalid_argument on unknown id. *)

val q1 : unit -> Pattern.t
(** Fig. 4's Q1: a plain-simulation variant of Q (all bounds 1 — matches
    direct collaborations only). *)

val q2 : unit -> Pattern.t
(** Fig. 4's Q2: different topology — SA leading SD and ST teams, with
    the ST vetted by a BA. *)

val q3 : unit -> Pattern.t
(** Fig. 4's Q3: an unbounded-edge variant (SA connected to BA via any
    collaboration chain). *)
