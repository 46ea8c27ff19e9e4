open Expfinder_graph

type pnode = int

type bound = Bounded of int | Unbounded

type node_spec = { name : string; label : Label.t option; pred : Predicate.t }

type t = {
  nodes : node_spec array;
  edge_list : (pnode * pnode * bound) list;
  out_adj : (pnode * bound) list array;
  in_adj : (pnode * bound) list array;
  output : pnode;
  fingerprint : string;  (* computed once, by [make] *)
}

let bound_to_string = function Bounded k -> string_of_int k | Unbounded -> "*"

let describe_parts nodes edge_list output =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun u { name; label; pred } ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s %s [%s]\n" u name
           (match label with None -> "*" | Some l -> Label.to_string l)
           (Format.asprintf "%a" Predicate.pp pred)))
    nodes;
  List.iter
    (fun (u, v, b) ->
      Buffer.add_string buf (Printf.sprintf "edge %d %d %s\n" u v (bound_to_string b)))
    (List.sort compare edge_list);
  Buffer.add_string buf (Printf.sprintf "output %d\n" output);
  Buffer.contents buf

(* FNV-1a over the canonical description; stable across runs. *)
let fnv1a text =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    text;
  Printf.sprintf "%016Lx" !h

let make ~nodes ~edges ~output =
  let n = Array.length nodes in
  if n = 0 then Error "pattern must have at least one node"
  else if output < 0 || output >= n then Error "output node out of range"
  else begin
    let seen = Hashtbl.create 8 in
    let rec check = function
      | [] -> Ok ()
      | (u, v, b) :: rest ->
        if u < 0 || u >= n || v < 0 || v >= n then
          Error (Printf.sprintf "edge (%d,%d) out of range" u v)
        else if u = v then Error (Printf.sprintf "self-loop on pattern node %d" u)
        else if Hashtbl.mem seen (u, v) then
          Error (Printf.sprintf "duplicate edge (%d,%d)" u v)
        else begin
          match b with
          | Bounded k when k < 1 -> Error (Printf.sprintf "bound %d on (%d,%d) must be >= 1" k u v)
          | Bounded _ | Unbounded ->
            Hashtbl.add seen (u, v) ();
            check rest
        end
    in
    match check edges with
    | Error _ as e -> e
    | Ok () ->
      let out_adj = Array.make n [] in
      let in_adj = Array.make n [] in
      List.iter
        (fun (u, v, b) ->
          out_adj.(u) <- (v, b) :: out_adj.(u);
          in_adj.(v) <- (u, b) :: in_adj.(v))
        edges;
      (* Own the node array, so no caller can stale the fingerprint. *)
      let nodes = Array.copy nodes in
      let fingerprint = fnv1a (describe_parts nodes edges output) in
      Ok { nodes; edge_list = edges; out_adj; in_adj; output; fingerprint }
  end

let make_exn ~nodes ~edges ~output =
  match make ~nodes ~edges ~output with
  | Ok t -> t
  | Error e -> invalid_arg ("Pattern.make: " ^ e)

let size t = Array.length t.nodes

let edge_count t = List.length t.edge_list

let node_spec t u =
  if u < 0 || u >= size t then invalid_arg "Pattern.node_spec";
  t.nodes.(u)

let name t u = (node_spec t u).name

let output t = t.output

let edges t = t.edge_list

let out_edges t u =
  if u < 0 || u >= size t then invalid_arg "Pattern.out_edges";
  t.out_adj.(u)

let in_edges t u =
  if u < 0 || u >= size t then invalid_arg "Pattern.in_edges";
  t.in_adj.(u)

let bound_of t u v =
  match List.find_opt (fun (v', _) -> v' = v) (out_edges t u) with
  | Some (_, b) -> Some b
  | None -> None

let max_bound t =
  List.fold_left
    (fun acc (_, _, b) ->
      match b with
      | Unbounded -> acc
      | Bounded k -> Some (max k (Option.value ~default:0 acc)))
    None t.edge_list

let has_unbounded_edge t =
  List.exists (fun (_, _, b) -> b = Unbounded) t.edge_list

let is_simulation_pattern t =
  List.for_all (fun (_, _, b) -> b = Bounded 1) t.edge_list

let to_simulation t =
  let edges = List.map (fun (u, v, _) -> (u, v, Bounded 1)) t.edge_list in
  make_exn ~nodes:t.nodes ~edges ~output:t.output

let matches_node t u label attrs =
  let spec = node_spec t u in
  (match spec.label with None -> true | Some l -> Label.equal l label)
  && Predicate.eval spec.pred attrs

let pnode_of_name t wanted =
  let rec loop u =
    if u >= size t then None
    else if String.equal t.nodes.(u).name wanted then Some u
    else loop (u + 1)
  in
  loop 0

let describe t = describe_parts t.nodes t.edge_list t.output

(* Equal patterns share a fingerprint, so unequal fingerprints settle
   most comparisons without rendering either pattern. *)
let equal a b =
  String.equal a.fingerprint b.fingerprint && String.equal (describe a) (describe b)

let fingerprint t = t.fingerprint

let pp ppf t =
  Format.fprintf ppf "pattern(%d nodes, %d edges, output=%s)@\n%s" (size t)
    (edge_count t) (name t t.output) (describe t)
