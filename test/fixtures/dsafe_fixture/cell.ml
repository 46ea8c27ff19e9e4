(* A unit whose top-level [t] is a mutable record. *)
type t = { mutable hits : int }

let make () = { hits = 0 }
