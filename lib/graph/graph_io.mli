(** Text serialisation of data graphs, and DOT export.

    The file format (one record per line, ['#'] comments):

    {v
    expfinder-graph 1
    node <id> <label> [key=typed-value ...]
    edge <src> <dst>
    v}

    Node ids must be dense [0 .. n-1] and declared before use.  Attribute
    values use the {!Attr.to_string} syntax (e.g. [exp=int:7]).  Labels
    and attribute keys containing spaces are percent-escaped. *)

val save : Digraph.t -> string -> unit
(** Write to a file.  @raise Sys_error on I/O failure. *)

val load : string -> (Digraph.t, string) result

val load_edge_list :
  ?node_init:(int -> Label.t * Attrs.t) -> string -> (Digraph.t, string) result
(** Read a SNAP-style edge list: one [src dst] pair per line (tabs or
    spaces), ['#'] comments, node ids arbitrary non-negative integers
    (renumbered densely in first-appearance order).  [node_init] assigns
    labels/attributes by dense id (default: label ["node"], no
    attributes) — real traces rarely ship labels, so callers typically
    overlay their own. *)

val escape : string -> string
(** Percent-escape spaces, ['%'], ['='] and newlines. *)

val unescape : string -> string
