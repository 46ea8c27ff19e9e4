type t = (string * Attr.t) list
(* Invariant: sorted by name, no duplicate names. *)

let empty = []

let rec set t name value =
  match t with
  | [] -> [ (name, value) ]
  | ((name', _) as binding) :: rest ->
    let c = String.compare name name' in
    if c < 0 then (name, value) :: t
    else if c = 0 then (name, value) :: rest
    else binding :: set rest name value

let of_list bindings = List.fold_left (fun acc (k, v) -> set acc k v) empty bindings

let to_list t = t

let find t name =
  let rec loop = function
    | [] -> None
    | (name', v) :: rest ->
      let c = String.compare name name' in
      if c = 0 then Some v else if c < 0 then None else loop rest
  in
  loop t

let equal a b =
  List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && Attr.equal v1 v2) a b

let union a b = List.fold_left (fun acc (k, v) -> set acc k v) a b

let int name v = (name, Attr.Int v)

let str name v = (name, Attr.String v)
