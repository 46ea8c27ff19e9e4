open Expfinder_graph

let header = "expfinder-pattern 1"

let bound_to_string = function Pattern.Bounded k -> string_of_int k | Pattern.Unbounded -> "*"

let bound_of_string = function
  | "*" -> Ok Pattern.Unbounded
  | s -> (
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok (Pattern.Bounded k)
    | Some k -> Error (Printf.sprintf "bound %d must be >= 1" k)
    | None -> Error (Printf.sprintf "bad bound %S" s))

let atom_to_string { Predicate.attr; op; value } =
  Printf.sprintf "%s%s%s" (Graph_io.escape attr) (Predicate.op_to_string op)
    (Graph_io.escape (Attr.to_string value))

let to_string p =
  let buf = Buffer.create 512 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  for u = 0 to Pattern.size p - 1 do
    let { Pattern.name; label; pred } = Pattern.node_spec p u in
    Buffer.add_string buf
      (Printf.sprintf "node %d %s %s" u (Graph_io.escape name)
         (match label with None -> "*" | Some l -> Graph_io.escape (Label.to_string l)));
    List.iter
      (fun atom -> Buffer.add_string buf (" " ^ atom_to_string atom))
      (Predicate.atoms pred);
    Buffer.add_char buf '\n'
  done;
  List.iter
    (fun (u, v, b) ->
      Buffer.add_string buf (Printf.sprintf "edge %d %d %s\n" u v (bound_to_string b)))
    (Pattern.edges p);
  Buffer.add_string buf (Printf.sprintf "output %d\n" (Pattern.output p));
  Buffer.contents buf

(* Operators sorted so that two-character ones are tried first. *)
let operators = [ "<="; ">="; "!="; "="; "<"; ">" ]

let parse_atom token =
  let find_op () =
    List.find_map
      (fun op_text ->
        (* Locate the first occurrence of op_text not at position 0 (the
           attribute name must be nonempty). *)
        let n = String.length token and k = String.length op_text in
        let rec scan i =
          if i + k > n then None
          else if String.sub token i k = op_text then Some (i, op_text)
          else scan (i + 1)
        in
        scan 1)
      operators
  in
  match find_op () with
  | None -> Error (Printf.sprintf "malformed condition %S" token)
  | Some (i, op_text) -> (
    let attr = Graph_io.unescape (String.sub token 0 i) in
    let rest =
      Graph_io.unescape
        (String.sub token (i + String.length op_text)
           (String.length token - i - String.length op_text))
    in
    if rest = "" || String.contains "=<>!" rest.[0] then
      Error (Printf.sprintf "malformed condition %S" token)
    else
    match (Predicate.op_of_string op_text, Attr.of_string rest) with
    | Some op, Ok value -> Ok { Predicate.attr; op; value }
    | None, _ -> Error (Printf.sprintf "unknown operator %S" op_text)
    | _, Error e -> Error e)

type partial = {
  mutable nodes : Pattern.node_spec list; (* reversed *)
  mutable edges : (int * int * Pattern.bound) list;
  mutable output : int option;
}

let of_string text =
  let lines = String.split_on_char '\n' text in
  let p = { nodes = []; edges = []; output = None } in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec loop lineno seen_header = function
    | [] ->
      if not seen_header then Error "empty input"
      else begin
        match p.output with
        | None -> Error "missing output declaration"
        | Some output ->
          Pattern.make
            ~nodes:(Array.of_list (List.rev p.nodes))
            ~edges:(List.rev p.edges) ~output
      end
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then loop (lineno + 1) seen_header rest
      else if not seen_header then
        if line = header then loop (lineno + 1) true rest
        else err lineno (Printf.sprintf "expected header %S" header)
      else
        match String.split_on_char ' ' line with
        | "node" :: id :: name :: label :: atom_tokens -> (
          match int_of_string_opt id with
          | Some id when id = List.length p.nodes -> (
            let label =
              if label = "*" then None
              else Some (Label.of_string (Graph_io.unescape label))
            in
            let rec parse_atoms acc = function
              | [] -> Ok (Predicate.of_atoms (List.rev acc))
              | "" :: rest -> parse_atoms acc rest
              | token :: rest -> (
                match parse_atom token with
                | Ok a -> parse_atoms (a :: acc) rest
                | Error e -> Error e)
            in
            match parse_atoms [] atom_tokens with
            | Error e -> err lineno e
            | Ok pred ->
              p.nodes <-
                { Pattern.name = Graph_io.unescape name; label; pred } :: p.nodes;
              loop (lineno + 1) seen_header rest)
          | Some id ->
            err lineno
              (Printf.sprintf "node ids must be dense; got %d, expected %d" id
                 (List.length p.nodes))
          | None -> err lineno (Printf.sprintf "bad node id %S" id))
        | [ "edge"; src; dst; bound ] -> (
          match (int_of_string_opt src, int_of_string_opt dst, bound_of_string bound) with
          | Some u, Some v, Ok b ->
            p.edges <- (u, v, b) :: p.edges;
            loop (lineno + 1) seen_header rest
          | _, _, Error e -> err lineno e
          | _ -> err lineno "bad edge endpoints")
        | [ "output"; id ] -> (
          match int_of_string_opt id with
          | Some id ->
            p.output <- Some id;
            loop (lineno + 1) seen_header rest
          | None -> err lineno (Printf.sprintf "bad output id %S" id))
        | keyword :: _ -> err lineno (Printf.sprintf "unknown record %S" keyword)
        | [] -> loop (lineno + 1) seen_header rest)
  in
  loop 1 false lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
