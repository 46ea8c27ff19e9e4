type t = { mutable spent : int; limit : int }

exception Exhausted

let create ?(limit = max_int) () = { spent = 0; limit }

let charge t n =
  t.spent <- t.spent + n;
  if t.spent > t.limit then raise Exhausted

let spent t = t.spent

let limit t = t.limit
