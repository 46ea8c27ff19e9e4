open Expfinder_graph
open Expfinder_telemetry

type t =
  | Insert_edge of int * int
  | Delete_edge of int * int
  | Insert_node of Label.t * Attrs.t

let pp ppf = function
  | Insert_edge (u, v) -> Format.fprintf ppf "+(%d,%d)" u v
  | Delete_edge (u, v) -> Format.fprintf ppf "-(%d,%d)" u v
  | Insert_node (l, _) -> Format.fprintf ppf "+node(%a)" Label.pp l

let apply g = function
  | Insert_edge (u, v) -> Digraph.add_edge g u v
  | Delete_edge (u, v) -> Digraph.remove_edge g u v
  | Insert_node (label, attrs) ->
    ignore (Digraph.add_node g ~attrs label : int);
    true

let apply_batch g updates =
  List.fold_left (fun acc u -> if apply g u then acc + 1 else acc) 0 updates

(* Every edge update must name nodes present at its point in the batch,
   so that a batch either applies whole or fails before any change. *)
let check_nodes g updates =
  ignore
    (List.fold_left
       (fun n u ->
         match u with
         | Insert_node _ -> n + 1
         | Insert_edge (a, b) | Delete_edge (a, b) ->
           if a < 0 || a >= n || b < 0 || b >= n then
             invalid_arg (Format.asprintf "Update: unknown node in %a" pp u);
           n)
       (Digraph.node_count g) updates
      : int)

let apply_batch_filtered g updates =
  check_nodes g updates;
  List.filter (apply g) updates

let net_edge_changes g effective =
  (* Parity per ordered pair: an edge toggled an even number of times is
     back to its pre-batch state; odd means the final graph decides the
     direction of the net change. *)
  let parity = Hashtbl.create 16 in
  List.iter
    (fun u ->
      match u with
      | Insert_edge (a, b) | Delete_edge (a, b) ->
        let count = Option.value ~default:0 (Hashtbl.find_opt parity (a, b)) in
        Hashtbl.replace parity (a, b) (count + 1)
      | Insert_node _ -> ())
    effective;
  Hashtbl.fold
    (fun (a, b) count (ins, del) ->
      if count mod 2 = 0 then (ins, del)
      else if Digraph.has_edge g a b then ((a, b) :: ins, del)
      else (ins, (a, b) :: del))
    parity ([], [])

let touched_sources updates =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun u ->
      match u with
      | Insert_edge (a, _) | Delete_edge (a, _) ->
        if Hashtbl.mem seen a then None
        else begin
          Hashtbl.add seen a ();
          Some a
        end
      | Insert_node _ -> None)
    updates

(* The wire codec shared by the query log, the serve protocol and the
   replay driver: ["+"]/["-"] edge ops carry the endpoints, ["node"]
   carries the label plus stringly-typed attributes (Attr.of_string is
   total over Attr.to_string output). *)
let to_json = function
  | Insert_edge (u, v) ->
    Json.Obj [ ("op", Json.Str "+"); ("u", Json.Int u); ("v", Json.Int v) ]
  | Delete_edge (u, v) ->
    Json.Obj [ ("op", Json.Str "-"); ("u", Json.Int u); ("v", Json.Int v) ]
  | Insert_node (label, attrs) ->
    Json.Obj
      [
        ("op", Json.Str "node");
        ("label", Json.Str (Label.to_string label));
        ( "attrs",
          Json.Obj
            (List.map (fun (k, a) -> (k, Json.Str (Attr.to_string a))) (Attrs.to_list attrs))
        );
      ]

let of_json j =
  let field name = Option.bind (Json.member name j) Json.int_opt in
  match Option.bind (Json.member "op" j) Json.str_opt with
  | Some "+" -> (
    match (field "u", field "v") with
    | Some u, Some v -> Ok (Insert_edge (u, v))
    | _ -> Error "update: \"+\" needs int fields u and v")
  | Some "-" -> (
    match (field "u", field "v") with
    | Some u, Some v -> Ok (Delete_edge (u, v))
    | _ -> Error "update: \"-\" needs int fields u and v")
  | Some "node" -> (
    match Option.bind (Json.member "label" j) Json.str_opt with
    | None -> Error "update: \"node\" needs a string label"
    | Some label -> (
      let attrs =
        match Json.member "attrs" j with
        | None | Some (Json.Obj []) -> Ok []
        | Some (Json.Obj fields) ->
          List.fold_left
            (fun acc (k, v) ->
              match (acc, Option.bind (Some v) Json.str_opt) with
              | Error e, _ -> Error e
              | Ok _, None -> Error (Printf.sprintf "update: attr %S is not a string" k)
              | Ok l, Some s -> (
                match Attr.of_string s with
                | Ok a -> Ok ((k, a) :: l)
                | Error e -> Error (Printf.sprintf "update: attr %S: %s" k e)))
            (Ok []) fields
        | Some _ -> Error "update: attrs must be an object"
      in
      match attrs with
      | Error e -> Error e
      | Ok l -> Ok (Insert_node (Label.of_string label, Attrs.of_list (List.rev l)))))
  | Some op -> Error (Printf.sprintf "update: unknown op %S" op)
  | None -> Error "update: missing op field"

let random_insertions rng g k =
  let n = Digraph.node_count g in
  if n < 2 then []
  else begin
    let chosen = Hashtbl.create (2 * k) in
    let out = ref [] in
    let placed = ref 0 and attempts = ref 0 in
    while !placed < k && !attempts < 100 * (k + 1) do
      incr attempts;
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v && (not (Digraph.has_edge g u v)) && not (Hashtbl.mem chosen (u, v)) then begin
        Hashtbl.add chosen (u, v) ();
        out := Insert_edge (u, v) :: !out;
        incr placed
      end
    done;
    List.rev !out
  end

let random_deletions rng g k =
  let m = Digraph.edge_count g in
  let k = min k m in
  if k = 0 then []
  else begin
    (* Materialise the edge list once, then sample k distinct indices. *)
    let edges = Array.make m (0, 0) in
    let i = ref 0 in
    Digraph.iter_edges g (fun u v ->
        edges.(!i) <- (u, v);
        incr i);
    let picks = Prng.sample_without_replacement rng k m in
    Array.to_list (Array.map (fun i -> let u, v = edges.(i) in Delete_edge (u, v)) picks)
  end

let random_mixed rng g k =
  let dels = random_deletions rng g (k / 2) in
  let inss = random_insertions rng g (k - List.length dels) in
  (* Interleave so deletions and insertions alternate. *)
  let rec weave a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a, y :: b -> weave a b (y :: x :: acc)
  in
  weave dels inss []
