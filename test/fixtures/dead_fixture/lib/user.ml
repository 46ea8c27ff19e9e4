(* References from another unit of the same library. *)

module E = Exports

let by_alias () = E.via_alias ()

open Exports

let by_open () = via_open ()

let by_nested_path () = Inner.nested_used ()
