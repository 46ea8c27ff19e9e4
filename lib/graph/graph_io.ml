let header = "expfinder-graph 1"

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' -> Buffer.add_string buf "%20"
      | '%' -> Buffer.add_string buf "%25"
      | '=' -> Buffer.add_string buf "%3d"
      | '\n' -> Buffer.add_string buf "%0a"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        let hex = String.sub s (i + 1) 2 in
        match int_of_string_opt ("0x" ^ hex) with
        | Some code ->
          Buffer.add_char buf (Char.chr code);
          loop (i + 3)
        | None ->
          Buffer.add_char buf s.[i];
          loop (i + 1)
      end
      else begin
        Buffer.add_char buf s.[i];
        loop (i + 1)
      end
  in
  loop 0;
  Buffer.contents buf

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Digraph.iter_nodes g (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s" v (escape (Label.to_string (Digraph.label g v))));
      List.iter
        (fun (k, value) ->
          Buffer.add_string buf
            (Printf.sprintf " %s=%s" (escape k) (escape (Attr.to_string value))))
        (Attrs.to_list (Digraph.attrs g v));
      Buffer.add_char buf '\n');
  Digraph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "edge %d %d\n" u v));
  Buffer.contents buf

let parse_attr_binding token =
  match String.index_opt token '=' with
  | None -> Error (Printf.sprintf "malformed attribute %S (expected key=value)" token)
  | Some i ->
    let key = unescape (String.sub token 0 i) in
    let raw = unescape (String.sub token (i + 1) (String.length token - i - 1)) in
    Result.map (fun v -> (key, v)) (Attr.of_string raw)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let g = Digraph.create () in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec loop lineno seen_header = function
    | [] -> if seen_header then Ok g else Error "empty input"
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then loop (lineno + 1) seen_header rest
      else if not seen_header then
        if line = header then loop (lineno + 1) true rest
        else err lineno (Printf.sprintf "expected header %S" header)
      else
        match String.split_on_char ' ' line with
        | "node" :: id :: label :: attr_tokens -> (
          match int_of_string_opt id with
          | None -> err lineno (Printf.sprintf "bad node id %S" id)
          | Some id ->
            if id <> Digraph.node_count g then
              err lineno (Printf.sprintf "node ids must be dense; got %d, expected %d" id (Digraph.node_count g))
            else begin
              let rec parse_attrs acc = function
                | [] -> Ok (Attrs.of_list (List.rev acc))
                | "" :: rest -> parse_attrs acc rest
                | token :: rest -> (
                  match parse_attr_binding token with
                  | Ok binding -> parse_attrs (binding :: acc) rest
                  | Error e -> Error e)
              in
              match parse_attrs [] attr_tokens with
              | Error e -> err lineno e
              | Ok attrs ->
                ignore
                  (Digraph.add_node g ~attrs (Label.of_string (unescape label)) : int);
                loop (lineno + 1) seen_header rest
            end)
        | [ "edge"; src; dst ] -> (
          match (int_of_string_opt src, int_of_string_opt dst) with
          | Some u, Some v ->
            if u < 0 || u >= Digraph.node_count g || v < 0 || v >= Digraph.node_count g
            then err lineno (Printf.sprintf "edge (%d,%d) references unknown node" u v)
            else begin
              ignore (Digraph.add_edge g u v : bool);
              loop (lineno + 1) seen_header rest
            end
          | _ -> err lineno "bad edge endpoints")
        | keyword :: _ -> err lineno (Printf.sprintf "unknown record %S" keyword)
        | [] -> loop (lineno + 1) seen_header rest)
  in
  loop 1 false lines

let save g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string g))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e

let of_edge_list ?node_init text =
  let default_label = Label.of_string "node" in
  let node_init = Option.value ~default:(fun _ -> (default_label, Attrs.empty)) node_init in
  let g = Digraph.create () in
  let dense = Hashtbl.create 1024 in
  let intern raw =
    match Hashtbl.find_opt dense raw with
    | Some id -> id
    | None ->
      let label, attrs = node_init (Hashtbl.length dense) in
      let id = Digraph.add_node g ~attrs label in
      Hashtbl.add dense raw id;
      id
  in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let split line =
    String.split_on_char '\t' line
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun t -> t <> "")
  in
  let rec loop lineno = function
    | [] -> Ok g
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then loop (lineno + 1) rest
      else
        match split line with
        | [ src; dst ] -> (
          match (int_of_string_opt src, int_of_string_opt dst) with
          | Some s, Some d when s >= 0 && d >= 0 ->
            (* Bind in order: OCaml evaluates arguments right to left,
               which would otherwise intern the destination first and
               break first-appearance numbering. *)
            let s_id = intern s in
            let d_id = intern d in
            ignore (Digraph.add_edge g s_id d_id : bool);
            loop (lineno + 1) rest
          | _ -> err lineno (Printf.sprintf "bad endpoints %S" line))
        | _ -> err lineno (Printf.sprintf "expected 'src dst', got %S" line))
  in
  loop 1 (String.split_on_char '\n' text)

let load_edge_list ?node_init path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_edge_list ?node_init text
  | exception Sys_error e -> Error e
