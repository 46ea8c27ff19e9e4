(* A unit whose top-level [t] is immutable: a value of this type owns
   no mutable state, whatever other units call their own [t]. *)
type t = { label : string }

let make () = { label = "plain" }
