open Expfinder_graph

type op = Eq | Ne | Lt | Le | Gt | Ge

type atom = { attr : string; op : op; value : Attr.t }

type t = atom list

let always = []

let of_atoms atoms = atoms

let atoms t = t

let conj a b = a @ b

let atom attr op value = [ { attr; op; value } ]

let eq_str attr v = atom attr Eq (Attr.String v)

let ge_int attr v = atom attr Ge (Attr.Int v)

let eval_atom { attr; op; value } attrs =
  match Attrs.find attrs attr with
  | None -> false
  | Some actual -> (
    match Attr.compare_values actual value with
    | None -> false
    | Some c -> (
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0))

let eval t attrs = List.for_all (fun a -> eval_atom a attrs) t

let is_always t = t = []

let op_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let op_of_string = function
  | "=" -> Some Eq
  | "!=" -> Some Ne
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None

let pp ppf = function
  | [] -> Format.pp_print_string ppf "true"
  | atoms ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " && ")
      (fun ppf { attr; op; value } ->
        Format.fprintf ppf "%s%s%a" attr (op_to_string op) Attr.pp value)
      ppf atoms
