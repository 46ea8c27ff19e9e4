open Expfinder_graph
open Expfinder_pattern

type adjacency = { offsets : int array; targets : int array; weights : int array }

type t = {
  fwd : adjacency;
  bwd : adjacency;
  node_of_index : int array;
  index_table : (int, int) Hashtbl.t;
  pnodes_of : int list array; (* per compact index *)
}

(* Stable counting sort of the edge list [(rows.(e), cols.(e), ws.(e))]
   by row: row [i]'s edges keep their list order. *)
let group n rows cols ws =
  let offsets = Array.make (n + 1) 0 in
  Array.iter (fun r -> offsets.(r + 1) <- offsets.(r + 1) + 1) rows;
  for i = 1 to n do
    offsets.(i) <- offsets.(i) + offsets.(i - 1)
  done;
  let fill = Array.sub offsets 0 n in
  let m = Array.length rows in
  let targets = Array.make m 0 and weights = Array.make m 0 in
  for e = 0 to m - 1 do
    let r = rows.(e) in
    let p = fill.(r) in
    targets.(p) <- cols.(e);
    weights.(p) <- ws.(e);
    fill.(r) <- p + 1
  done;
  { offsets; targets; weights }

(* One edge per (row, target) pair, at its first position, with the
   minimum weight.  Compacts in place: [slot.(j)] is where target [j]
   was last written, which lies inside the current row iff it is at or
   after the row's first output position. *)
let dedup n a =
  let slot = Array.make n (-1) in
  let offsets = Array.make (n + 1) 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let row = !k in
    for p = a.offsets.(i) to a.offsets.(i + 1) - 1 do
      let j = a.targets.(p) and d = a.weights.(p) in
      let q = slot.(j) in
      if q >= row then begin
        if d < a.weights.(q) then a.weights.(q) <- d
      end
      else begin
        slot.(j) <- !k;
        a.targets.(!k) <- j;
        a.weights.(!k) <- d;
        incr k
      end
    done;
    offsets.(i + 1) <- !k
  done;
  { offsets; targets = Array.sub a.targets 0 !k; weights = Array.sub a.weights 0 !k }

let transpose n a =
  let rows = Array.make (Array.length a.targets) 0 in
  for i = 0 to n - 1 do
    Array.fill rows a.offsets.(i) (a.offsets.(i + 1) - a.offsets.(i)) i
  done;
  group n a.targets rows a.weights

let build pattern g m =
  let psize = Pattern.size pattern in
  (* Collect matched data nodes into a compact index space. *)
  let index_table = Hashtbl.create 64 in
  let order = Vec.create ~dummy:(-1) () in
  for u = 0 to psize - 1 do
    List.iter
      (fun v ->
        if not (Hashtbl.mem index_table v) then begin
          Hashtbl.add index_table v (Vec.length order);
          Vec.push order v
        end)
      (Match_relation.matches m u)
  done;
  let node_of_index = Vec.to_array order in
  let count = Array.length node_of_index in
  let pnodes_of = Array.make (max count 1) [] in
  for u = psize - 1 downto 0 do
    List.iter
      (fun v ->
        let i = Hashtbl.find index_table v in
        pnodes_of.(i) <- u :: pnodes_of.(i))
      (Match_relation.matches m u)
  done;
  let srcs = Vec.create ~dummy:0 () and dsts = Vec.create ~dummy:0 () in
  let ws = Vec.create ~dummy:0 () in
  let scratch = Distance.make_scratch g in
  List.iter
    (fun (u, u', b) ->
      let k = match b with Pattern.Bounded k -> k | Pattern.Unbounded -> Distance.eccentricity_bound g in
      let targets = Match_relation.matches_set m u' in
      List.iter
        (fun v ->
          let vi = Hashtbl.find index_table v in
          Distance.ball scratch g v k (fun w d ->
              if Bitset.mem targets w then begin
                Vec.push srcs vi;
                Vec.push dsts (Hashtbl.find index_table w);
                Vec.push ws d
              end))
        (Match_relation.matches m u))
    (Pattern.edges pattern);
  let fwd = dedup count (group count (Vec.to_array srcs) (Vec.to_array dsts) (Vec.to_array ws)) in
  let bwd = transpose count fwd in
  { fwd; bwd; node_of_index; index_table; pnodes_of }

let node_count t = Array.length t.node_of_index

let edge_count t = Array.length t.fwd.targets

let index_of t v = Hashtbl.find_opt t.index_table v

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
      let display =
        match Attrs.find (Snapshot.attrs g v) "name" with
        | Some (Attr.String s) -> s
        | _ -> Printf.sprintf "#%d" v
      in
      let style = if Hashtbl.mem hl v then ", style=filled, fillcolor=red" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  r%d [label=\"%s\\n(%s:%s)\"%s];\n" i display roles
           (Label.to_string (Snapshot.label g v)) style))
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
        let display =
          match Attrs.find (Snapshot.attrs g v) "name" with
          | Some (Attr.String s) -> s
          | Some _ | None -> Printf.sprintf "#%d" v
        in
        let out_edges = ref [] and in_edges = ref [] in
        iter_row t.fwd i (fun j d -> out_edges := (t.node_of_index.(j), d) :: !out_edges);
        iter_row t.bwd i (fun j d -> in_edges := (t.node_of_index.(j), d) :: !in_edges);
        details :=
          {
            data_node = v;
            display;
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
