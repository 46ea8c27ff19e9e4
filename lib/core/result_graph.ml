open Expfinder_graph
open Expfinder_pattern

type adjacency = { offsets : int array; targets : int array; weights : int array }

type t = {
  fwd : adjacency;
  bwd : adjacency;
  node_of_index : int array;
  index : int array; (* data node -> compact index, -1 when not in Gr *)
  pnodes_of : int list array; (* per compact index *)
}

(* The reverse arrays: a counting sort of the forward edges by target,
   so each reverse row lists its sources in ascending compact index. *)
let transpose n a =
  let offsets = Array.make (n + 1) 0 in
  Array.iter (fun j -> offsets.(j + 1) <- offsets.(j + 1) + 1) a.targets;
  for i = 1 to n do
    offsets.(i) <- offsets.(i) + offsets.(i - 1)
  done;
  let fill = Array.sub offsets 0 n in
  let targets = Array.make (Array.length a.targets) 0 in
  let weights = Array.make (Array.length a.targets) 0 in
  for i = 0 to n - 1 do
    for p = a.offsets.(i) to a.offsets.(i + 1) - 1 do
      let j = a.targets.(p) in
      targets.(fill.(j)) <- i;
      weights.(fill.(j)) <- a.weights.(p);
      fill.(j) <- fill.(j) + 1
    done
  done;
  { offsets; targets; weights }

(* One BFS per matched node [v], at the largest bound among the
   out-edges of its pattern nodes, keeps a hit [w] at distance [d] when
   some such edge [(u,u',k)] has [d <= k] and [w] matches [u'].  The BFS
   reports each node once, at its shortest distance, so row [v] comes
   out whole, each pair once with its minimum weight, and the rows are
   appended to the forward arrays in compact index order: no sort, no
   dedup pass. *)
let build pattern g m =
  let psize = Pattern.size pattern in
  (* Compact indices in order of first appearance, pattern node by
     pattern node. *)
  let index = Array.make (Match_relation.graph_size m) (-1) in
  let order = Vec.create ~dummy:(-1) () in
  for u = 0 to psize - 1 do
    Bitset.iter
      (fun v ->
        if index.(v) < 0 then begin
          index.(v) <- Vec.length order;
          Vec.push order v
        end)
      (Match_relation.matches_set m u)
  done;
  let node_of_index = Vec.to_array order in
  let count = Array.length node_of_index in
  let pnodes_of = Array.make (max count 1) [] in
  for u = psize - 1 downto 0 do
    Bitset.iter
      (fun v -> pnodes_of.(index.(v)) <- u :: pnodes_of.(index.(v)))
      (Match_relation.matches_set m u)
  done;
  let bound = function
    | Pattern.Bounded k -> k
    | Pattern.Unbounded -> Distance.eccentricity_bound g
  in
  (* Per pattern node: its out-edges as (bound, matches of the target). *)
  let out =
    Array.init psize (fun u ->
        List.map
          (fun (u', b) -> (bound b, Match_relation.matches_set m u'))
          (Pattern.out_edges pattern u))
  in
  let offsets = Array.make (count + 1) 0 in
  let targets = Vec.create ~dummy:0 () and weights = Vec.create ~dummy:0 () in
  let scratch = Distance.make_scratch g in
  for i = 0 to count - 1 do
    let edges = List.concat_map (fun u -> out.(u)) pnodes_of.(i) in
    if edges <> [] then begin
      let radius = List.fold_left (fun r (k, _) -> max r k) 0 edges in
      Distance.ball scratch g node_of_index.(i) radius (fun w d ->
          let j = index.(w) in
          if j >= 0 && List.exists (fun (k, sim) -> d <= k && Bitset.mem sim w) edges then begin
            Vec.push targets j;
            Vec.push weights d
          end)
    end;
    offsets.(i + 1) <- Vec.length targets
  done;
  let fwd = { offsets; targets = Vec.to_array targets; weights = Vec.to_array weights } in
  { fwd; bwd = transpose count fwd; node_of_index; index; pnodes_of }

let node_count t = Array.length t.node_of_index

let edge_count t = Array.length t.fwd.targets

let index_of t v =
  if v >= 0 && v < Array.length t.index && t.index.(v) >= 0 then Some t.index.(v) else None

let forward t = t.fwd

let backward t = t.bwd

let iter_row a i f =
  for p = a.offsets.(i) to a.offsets.(i + 1) - 1 do
    f a.targets.(p) a.weights.(p)
  done

(* Over compact indices, row by row. *)
let iter_index_edges t f =
  for i = 0 to node_count t - 1 do
    iter_row t.fwd i (f i)
  done

(* A node's ["name"] attribute, or ["#id"]. *)
let display g v =
  match Attrs.find (Snapshot.attrs g v) "name" with
  | Some (Attr.String s) -> s
  | _ -> Printf.sprintf "#%d" v

(* The body of a DOT double-quoted string: quotes and backslashes
   escaped, newlines written as [\n]. *)
let dot_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_dot ?(name = "Gr") ?(highlight = []) pattern g t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=box, fontname=\"Helvetica\"];\n";
  let hl = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace hl v ()) highlight;
  Array.iteri
    (fun i v ->
      let roles =
        String.concat "," (List.map (Pattern.name pattern) t.pnodes_of.(i))
      in
      let style = if Hashtbl.mem hl v then ", style=filled, fillcolor=red" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  r%d [label=\"%s\\n(%s:%s)\"%s];\n" i (dot_escape (display g v))
           (dot_escape roles)
           (dot_escape (Label.to_string (Snapshot.label g v)))
           style))
    t.node_of_index;
  iter_index_edges t (fun i j d ->
      Buffer.add_string buf (Printf.sprintf "  r%d -> r%d [label=\"%d\"];\n" i j d));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

type edge_stats = {
  source : int;
  target : int;
  realised : int;
  min_dist : int;
  avg_dist : float;
}

type summary = { match_counts : int array; edge_summaries : edge_stats list }

let roll_up pattern t =
  let psize = Pattern.size pattern in
  let match_counts = Array.make psize 0 in
  Array.iteri
    (fun i _ -> List.iter (fun u -> match_counts.(u) <- match_counts.(u) + 1) t.pnodes_of.(i))
    t.node_of_index;
  let edge_summaries =
    List.map
      (fun (u, u', b) ->
        let bound =
          match b with Pattern.Bounded k -> k | Pattern.Unbounded -> max_int
        in
        let realised = ref 0 and total = ref 0 and min_dist = ref max_int in
        iter_index_edges t (fun i j d ->
            if
              d <= bound
              && List.mem u t.pnodes_of.(i)
              && List.mem u' t.pnodes_of.(j)
            then begin
              incr realised;
              total := !total + d;
              if d < !min_dist then min_dist := d
            end);
        {
          source = u;
          target = u';
          realised = !realised;
          min_dist = (if !realised = 0 then 0 else !min_dist);
          avg_dist =
            (if !realised = 0 then 0.0 else float_of_int !total /. float_of_int !realised);
        })
      (Pattern.edges pattern)
  in
  { match_counts; edge_summaries }

let pp_summary pattern ppf s =
  Format.fprintf ppf "@[<v>matches:";
  Array.iteri
    (fun u c -> Format.fprintf ppf "@,  %-12s %d" (Pattern.name pattern u) c)
    s.match_counts;
  Format.fprintf ppf "@,pattern edges:";
  List.iter
    (fun e ->
      Format.fprintf ppf "@,  %s -> %s: %d witness edges%s" (Pattern.name pattern e.source)
        (Pattern.name pattern e.target) e.realised
        (if e.realised = 0 then ""
         else Format.asprintf " (min %d, avg %.1f)" e.min_dist e.avg_dist))
    s.edge_summaries;
  Format.fprintf ppf "@]"

type detail = {
  data_node : int;
  display : string;
  roles : int list;
  out_edges : (int * int) list;
  in_edges : (int * int) list;
}

let drill_down pattern g t u =
  if u < 0 || u >= Pattern.size pattern then invalid_arg "Result_graph.drill_down";
  let details = ref [] in
  Array.iteri
    (fun i v ->
      if List.mem u t.pnodes_of.(i) then begin
        let out_edges = ref [] and in_edges = ref [] in
        iter_row t.fwd i (fun j d -> out_edges := (t.node_of_index.(j), d) :: !out_edges);
        iter_row t.bwd i (fun j d -> in_edges := (t.node_of_index.(j), d) :: !in_edges);
        details :=
          {
            data_node = v;
            display = display g v;
            roles = t.pnodes_of.(i);
            out_edges = List.sort compare !out_edges;
            in_edges = List.sort compare !in_edges;
          }
          :: !details
      end)
    t.node_of_index;
  List.sort (fun a b -> compare a.data_node b.data_node) !details

let pp_detail ppf d =
  Format.fprintf ppf "@[<v>%s (node %d)" d.display d.data_node;
  List.iter (fun (v, dist) -> Format.fprintf ppf "@,  -> node %d (distance %d)" v dist) d.out_edges;
  List.iter (fun (v, dist) -> Format.fprintf ppf "@,  <- node %d (distance %d)" v dist) d.in_edges;
  Format.fprintf ppf "@]"
