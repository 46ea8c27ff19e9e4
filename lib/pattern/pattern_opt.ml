open Expfinder_graph

let bound_value = function Pattern.Bounded k -> k | Pattern.Unbounded -> max_int

let bound_of_value v = if v = max_int then Pattern.Unbounded else Pattern.Bounded v

(* Canonical constraint set of a node under a class assignment: one entry
   per target class with the tightest bound (being within k1 and within
   k2 of the same set is being within min k1 k2). *)
let canonical_out rep pattern u =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (v, b) ->
      let target = rep.(v) in
      let b = bound_value b in
      match Hashtbl.find_opt table target with
      | Some b' when b' <= b -> ()
      | _ -> Hashtbl.replace table target b)
    (Pattern.out_edges pattern u);
  List.sort compare (Hashtbl.fold (fun t b acc -> (t, b) :: acc) table [])

let spec_key pattern u =
  let spec = Pattern.node_spec pattern u in
  ( Option.map Label.to_int spec.Pattern.label,
    List.sort compare
      (List.map
         (fun a -> (a.Predicate.attr, a.Predicate.op, Attr.to_string a.Predicate.value))
         (Predicate.atoms spec.Pattern.pred)) )

let minimise pattern =
  let n = Pattern.size pattern in
  let rep = Array.init n Fun.id in
  let changed = ref true in
  while !changed do
    changed := false;
    let groups = Hashtbl.create 8 in
    for u = 0 to n - 1 do
      let key = (spec_key pattern u, canonical_out rep pattern u) in
      let members = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (u :: members)
    done;
    Hashtbl.iter
      (fun (_, out) members ->
        match members with
        | [] | [ _ ] -> ()
        | members ->
          (* Merging a group whose members point at each other would
             create a pattern self-loop; keep those apart. *)
          let leader = List.fold_left min max_int members in
          let internal =
            List.exists (fun m -> List.mem_assoc rep.(m) out) members
          in
          if not internal then
            List.iter
              (fun m ->
                if rep.(m) <> leader then begin
                  rep.(m) <- leader;
                  changed := true
                end)
              members)
      groups;
    (* Normalise: representative chains collapse (rep of a rep). *)
    for u = 0 to n - 1 do
      rep.(u) <- rep.(rep.(u))
    done
  done;
  (* Renumber surviving representatives densely. *)
  let dense = Array.make n (-1) in
  let count = ref 0 in
  for u = 0 to n - 1 do
    if rep.(u) = u then begin
      dense.(u) <- !count;
      incr count
    end
  done;
  let renaming = Array.init n (fun u -> dense.(rep.(u))) in
  if !count = n then (pattern, renaming)
  else begin
    let nodes = Array.make !count (Pattern.node_spec pattern 0) in
    for u = 0 to n - 1 do
      if rep.(u) = u then nodes.(renaming.(u)) <- Pattern.node_spec pattern u
    done;
    let edges = ref [] in
    for u = 0 to n - 1 do
      if rep.(u) = u then
        List.iter
          (fun (t, b) -> edges := (renaming.(u), dense.(t), bound_of_value b) :: !edges)
          (canonical_out rep pattern u)
    done;
    let minimised =
      Pattern.make_exn ~nodes ~edges:!edges ~output:renaming.(Pattern.output pattern)
    in
    (minimised, renaming)
  end

let merges pattern =
  let _, renaming = minimise pattern in
  let n = Array.length renaming in
  let groups = Hashtbl.create 8 in
  for u = n - 1 downto 0 do
    let members = Option.value ~default:[] (Hashtbl.find_opt groups renaming.(u)) in
    Hashtbl.replace groups renaming.(u) (u :: members)
  done;
  Hashtbl.fold
    (fun _ members acc ->
      match members with leader :: (_ :: _ as rest) -> (leader, rest) :: acc | _ -> acc)
    groups []
  |> List.sort compare
