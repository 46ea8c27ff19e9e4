open Expfinder_graph
open Expfinder_pattern

type embedding = int array

exception Enough

(* Backtracking over pattern nodes in ascending-candidate-count order;
   at each step the partial mapping must realise every pattern edge
   between already-placed nodes as a data edge, injectively. *)
let search ?(max_embeddings = 1000) pattern g ~on_embedding =
  let psize = Pattern.size pattern in
  let candidates =
    Array.init psize (fun u ->
        let spec = Pattern.node_spec pattern u in
        let pool =
          match spec.Pattern.label with
          | Some l -> Snapshot.nodes_with_label g l
          | None -> List.init (Snapshot.node_count g) Fun.id
        in
        Array.of_list
          (List.filter (fun v -> Predicate.eval spec.Pattern.pred (Snapshot.attrs g v)) pool))
  in
  let order = Array.init psize Fun.id in
  Array.sort (fun a b -> compare (Array.length candidates.(a)) (Array.length candidates.(b))) order;
  let assignment = Array.make psize (-1) in
  let used = Hashtbl.create 16 in
  let found = ref 0 in
  let consistent u v =
    (* every pattern edge between u and an already-placed node must be a
       data edge *)
    List.for_all
      (fun (u', _) -> assignment.(u') < 0 || Snapshot.has_edge g v assignment.(u'))
      (Pattern.out_edges pattern u)
    && List.for_all
         (fun (u', _) -> assignment.(u') < 0 || Snapshot.has_edge g assignment.(u') v)
         (Pattern.in_edges pattern u)
  in
  let rec place depth =
    if depth = psize then begin
      on_embedding (Array.copy assignment);
      incr found;
      if !found >= max_embeddings then raise Enough
    end
    else begin
      let u = order.(depth) in
      Array.iter
        (fun v ->
          if (not (Hashtbl.mem used v)) && consistent u v then begin
            assignment.(u) <- v;
            Hashtbl.add used v ();
            place (depth + 1);
            Hashtbl.remove used v;
            assignment.(u) <- -1
          end)
        candidates.(u)
    end
  in
  (try place 0 with Enough -> ());
  !found

let exists pattern g =
  search ~max_embeddings:1 pattern g ~on_embedding:(fun _ -> ()) > 0

let matched_pairs ?max_embeddings pattern g =
  let seen = Hashtbl.create 64 in
  ignore
    (search ?max_embeddings pattern g ~on_embedding:(fun e ->
         Array.iteri (fun u v -> Hashtbl.replace seen (u, v) ()) e)
      : int);
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) seen [])
