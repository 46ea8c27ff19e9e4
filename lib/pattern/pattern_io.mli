(** Text serialisation of pattern queries, and DOT export.

    Format (['#'] comments allowed):

    {v
    expfinder-pattern 1
    node <id> <name> <label|*> [attr<op>typed-value ...]
    edge <src> <dst> <bound|*>
    output <id>
    v}

    e.g. the paper's query Q:

    {v
    expfinder-pattern 1
    node 0 SA SA exp>=int:5
    node 1 SD SD exp>=int:2
    node 2 BA BA exp>=int:3
    node 3 ST ST exp>=int:2
    edge 0 1 2
    edge 1 0 2
    edge 0 2 3
    edge 1 3 2
    edge 3 2 1
    output 0
    v} *)

val to_string : Pattern.t -> string

val of_string : string -> (Pattern.t, string) result

val load : string -> (Pattern.t, string) result
