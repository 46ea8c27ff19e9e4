type t = int

let table : (string, int) Hashtbl.t = Hashtbl.create 64

let names : string Vec.t = Vec.create ~dummy:"" ()

let of_string s =
  match Hashtbl.find_opt table s with
  | Some id -> id
  | None ->
    let id = Vec.length names in
    Hashtbl.add table s id;
    Vec.push names s;
    id

let to_string id =
  if id < 0 || id >= Vec.length names then invalid_arg "Label.to_string";
  Vec.get names id

let equal = Int.equal

let compare = Int.compare

let to_int id = id

let pp ppf id = Format.pp_print_string ppf (to_string id)
