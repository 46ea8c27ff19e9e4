open Expfinder_graph

type severity = Error | Warning | Info

type diagnostic = {
  code : string;
  severity : severity;
  node : Pattern.pnode option;
  message : string;
  fixup : string option;
}

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_diagnostic pattern ppf d =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_to_string d.severity) d.code
    (match d.node with
    | Some u -> "node " ^ Pattern.name pattern u
    | None -> "pattern")
    d.message;
  match d.fixup with
  | None -> ()
  | Some f -> Format.fprintf ppf " (fix: %s)" f

(* ------------------------------------------------------------------ *)
(* Per-attribute constraint summaries.                                 *)
(* ------------------------------------------------------------------ *)

let atoms_on attr pred =
  List.filter (fun a -> String.equal a.Predicate.attr attr) (Predicate.atoms pred)

let attrs_of pred =
  List.fold_left
    (fun acc a ->
      if List.mem a.Predicate.attr acc then acc else a.Predicate.attr :: acc)
    [] (Predicate.atoms pred)
  |> List.rev

(* The integer solution set of a conjunction on one attribute: an
   interval plus excluded points.  [impossible] covers the saturating
   corners (> max_int, < min_int). *)
type interval = { lo : int; hi : int; ne : int list; impossible : bool }

let int_interval atoms =
  List.fold_left
    (fun iv a ->
      match (a.Predicate.op, a.Predicate.value) with
      | _, (Attr.Float _ | Attr.Bool _ | Attr.String _) -> iv
      | Predicate.Eq, Attr.Int c -> { iv with lo = max iv.lo c; hi = min iv.hi c }
      | Predicate.Ne, Attr.Int c -> { iv with ne = c :: iv.ne }
      | Predicate.Ge, Attr.Int c -> { iv with lo = max iv.lo c }
      | Predicate.Gt, Attr.Int c ->
        if c = max_int then { iv with impossible = true }
        else { iv with lo = max iv.lo (c + 1) }
      | Predicate.Le, Attr.Int c -> { iv with hi = min iv.hi c }
      | Predicate.Lt, Attr.Int c ->
        if c = min_int then { iv with impossible = true }
        else { iv with hi = min iv.hi (c - 1) })
    { lo = min_int; hi = max_int; ne = []; impossible = false }
    atoms

let interval_empty iv =
  iv.impossible || iv.lo > iv.hi
  ||
  (* Every point of a small interval excluded by Ne atoms. *)
  let width = Int64.sub (Int64.of_int iv.hi) (Int64.of_int iv.lo) in
  Int64.compare width (Int64.of_int (List.length iv.ne)) < 0
  &&
  let rec all_excluded x = x > iv.hi || (List.mem x iv.ne && all_excluded (x + 1)) in
  all_excluded iv.lo

let pp_int_bound v = if v = min_int || v = max_int then "∞" else string_of_int v

(* (code, message) when the atoms on [attr] admit no value. *)
let attr_conflict attr atoms =
  let types =
    List.sort_uniq compare (List.map (fun a -> Attr.type_name a.Predicate.value) atoms)
  in
  match types with
  | _ :: _ :: _ ->
    Some
      ( "mixed-type-atoms",
        Printf.sprintf "conditions compare %s against %s values; no value has two types"
          attr
          (String.concat " and " types) )
  | [ "int" ] ->
    let iv = int_interval atoms in
    if interval_empty iv then
      Some
        ( "unsat-predicate",
          Printf.sprintf "integer conditions on %s admit no value (interval [%s, %s]%s)"
            attr (pp_int_bound iv.lo) (pp_int_bound iv.hi)
            (if iv.ne = [] then ""
             else
               Printf.sprintf " minus {%s}"
                 (String.concat ", "
                    (List.map string_of_int (List.sort_uniq compare iv.ne)))) )
    else None
  | _ ->
    (* Strings (and other non-ordered reasoning): equality conflicts. *)
    let eqs =
      List.filter_map
        (fun a -> if a.Predicate.op = Predicate.Eq then Some a.Predicate.value else None)
        atoms
    in
    let nes =
      List.filter_map
        (fun a -> if a.Predicate.op = Predicate.Ne then Some a.Predicate.value else None)
        atoms
    in
    let distinct_eqs =
      match eqs with
      | v :: rest -> List.find_opt (fun w -> not (Attr.equal v w)) rest |> Option.map (fun w -> (v, w))
      | [] -> None
    in
    (match distinct_eqs with
    | Some (v, w) ->
      Some
        ( "unsat-predicate",
          Printf.sprintf "%s cannot equal both %s and %s" attr (Attr.to_string v)
            (Attr.to_string w) )
    | None -> (
      match
        List.find_opt (fun v -> List.exists (fun w -> Attr.equal v w) nes) eqs
      with
      | Some v ->
        Some
          ( "unsat-predicate",
            Printf.sprintf "%s is required to both equal and differ from %s" attr
              (Attr.to_string v) )
      | None -> None))

let unsat_reason pred =
  List.find_map (fun attr -> attr_conflict attr (atoms_on attr pred)) (attrs_of pred)

(* ------------------------------------------------------------------ *)
(* Implication.                                                        *)
(* ------------------------------------------------------------------ *)

let atom_equal (a : Predicate.atom) (b : Predicate.atom) =
  String.equal a.attr b.attr && a.op = b.op && Attr.equal a.value b.value

(* Does the fixed value [c] satisfy atom [b]?  (Mirrors Predicate.eval
   on a single attribute.) *)
let atom_holds_on c (b : Predicate.atom) =
  match Attr.compare_values c b.value with
  | None -> false
  | Some cmp -> (
    match b.op with
    | Predicate.Eq -> cmp = 0
    | Predicate.Ne -> cmp <> 0
    | Predicate.Lt -> cmp < 0
    | Predicate.Le -> cmp <= 0
    | Predicate.Gt -> cmp > 0
    | Predicate.Ge -> cmp >= 0)

(* [implied_atom p_atoms b]: the conjunction of [p_atoms] (all

   constraining [b.attr]) forces [b] to hold. *)
let implied_atom p_atoms (b : Predicate.atom) =
  List.exists (fun a -> atom_equal a b) p_atoms
  || (match
        List.find_opt (fun (a : Predicate.atom) -> a.op = Predicate.Eq) p_atoms
      with
     | Some a -> atom_holds_on a.value b
     | None -> false)
  ||
  match b.value with
  | Attr.Int c ->
    (* The interval is meaningful only if the atoms pin the type to int. *)
    List.exists (fun a -> match a.Predicate.value with Attr.Int _ -> true | _ -> false) p_atoms
    &&
    let iv = int_interval p_atoms in
    (match b.op with
    | Predicate.Eq -> iv.lo = c && iv.hi = c
    | Predicate.Ne -> c < iv.lo || c > iv.hi || List.mem c iv.ne
    | Predicate.Ge -> iv.lo >= c
    | Predicate.Gt -> iv.lo > c
    | Predicate.Le -> iv.hi <= c
    | Predicate.Lt -> iv.hi < c)
  | Attr.String s when b.op = Predicate.Ne ->
    (* Pinned to a different string. *)
    List.exists
      (fun (a : Predicate.atom) ->
        a.op = Predicate.Eq
        && match a.value with Attr.String w -> not (String.equal w s) | _ -> false)
      p_atoms
  | Attr.String _ | Attr.Float _ | Attr.Bool _ -> false

let implies p q =
  unsat_reason p <> None
  || List.for_all (fun b -> implied_atom (atoms_on b.Predicate.attr p) b) (Predicate.atoms q)

let simplify p =
  if unsat_reason p <> None then p
  else begin
    let rec loop kept = function
      | [] -> Predicate.of_atoms (List.rev kept)
      | a :: rest ->
        let others = List.rev_append kept rest in
        if implied_atom (atoms_on a.Predicate.attr (Predicate.of_atoms others)) a then
          loop kept rest
        else loop (a :: kept) rest
    in
    loop [] (Predicate.atoms p)
  end

let subsumes (a : Pattern.node_spec) (b : Pattern.node_spec) =
  unsat_reason b.pred <> None
  || ((match (a.label, b.label) with
      | None, _ -> true
      | Some la, Some lb -> Label.equal la lb
      | Some _, None -> false)
     && implies b.pred a.pred)

(* ------------------------------------------------------------------ *)
(* Containment: maximal simulation of q2's pattern graph by q1's.      *)
(* ------------------------------------------------------------------ *)

let bound_le b1 b2 =
  match (b1, b2) with
  | _, Pattern.Unbounded -> true
  | Pattern.Bounded k1, Pattern.Bounded k2 -> k1 <= k2
  | Pattern.Unbounded, Pattern.Bounded _ -> false

(* r.(u2).(u1) <=> every data graph satisfies
   [kernel q1 u1 ⊆ kernel q2 u2]: u2's spec is weaker than u1's and
   every q2-edge out of u2 is covered by a tighter q1-edge out of u1
   into a related pair. *)
let containment_relation q1 q2 =
  let n1 = Pattern.size q1 and n2 = Pattern.size q2 in
  let r =
    Array.init n2 (fun u2 ->
        Array.init n1 (fun u1 ->
            subsumes (Pattern.node_spec q2 u2) (Pattern.node_spec q1 u1)))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for u2 = 0 to n2 - 1 do
      for u1 = 0 to n1 - 1 do
        if
          r.(u2).(u1)
          && not
               (List.for_all
                  (fun (v2, b2) ->
                    List.exists
                      (fun (v1, b1) -> bound_le b1 b2 && r.(v2).(v1))
                      (Pattern.out_edges q1 u1))
                  (Pattern.out_edges q2 u2))
        then begin
          r.(u2).(u1) <- false;
          changed := true
        end
      done
    done
  done;
  r

let contains q1 q2 =
  let r = containment_relation q1 q2 in
  r.(Pattern.output q2).(Pattern.output q1)
  && Array.for_all (fun row -> Array.exists Fun.id row) r

let superset_map ~sub ~sup =
  let r = containment_relation sub sup in
  let n_sub = Pattern.size sub and n_sup = Pattern.size sup in
  let map = Array.make n_sub (-1) in
  let ok = ref true in
  for u1 = 0 to n_sub - 1 do
    let rec pick u2 = if u2 >= n_sup then -1 else if r.(u2).(u1) then u2 else pick (u2 + 1) in
    map.(u1) <- pick 0;
    if map.(u1) < 0 then ok := false
  done;
  if !ok then Some map else None

(* ------------------------------------------------------------------ *)
(* Structural lints.                                                   *)
(* ------------------------------------------------------------------ *)

let unsat_node pattern =
  let n = Pattern.size pattern in
  let rec loop u =
    if u >= n then None
    else if unsat_reason (Pattern.node_spec pattern u).Pattern.pred <> None then Some u
    else loop (u + 1)
  in
  loop 0

let statically_empty pattern = unsat_node pattern <> None

let component_count pattern =
  let n = Pattern.size pattern in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let c = !count in
      incr count;
      let rec visit u =
        if comp.(u) < 0 then begin
          comp.(u) <- c;
          List.iter (fun (v, _) -> visit v) (Pattern.out_edges pattern u);
          List.iter (fun (v, _) -> visit v) (Pattern.in_edges pattern u)
        end
      in
      visit s
    end
  done;
  !count

let bound_to_string = function
  | Pattern.Bounded k -> "<=" ^ string_of_int k
  | Pattern.Unbounded -> "*"

let analyze pattern =
  let n = Pattern.size pattern in
  let diags = ref [] in
  let emit code severity node message fixup =
    diags := { code; severity; node; message; fixup } :: !diags
  in
  (* Per-node predicate diagnostics. *)
  for u = 0 to n - 1 do
    let spec = Pattern.node_spec pattern u in
    match unsat_reason spec.Pattern.pred with
    | Some (code, message) ->
      emit code Error (Some u)
        (message ^ "; this node can never match, so M(Q,G) is empty on every graph")
        (Some "relax or remove the contradictory conditions")
    | None ->
      if spec.Pattern.label = None && Predicate.is_always spec.Pattern.pred then
        emit "unconstrained-node" Warning (Some u)
          "wildcard label and no conditions: matches every data node" None;
      let simplified = simplify spec.Pattern.pred in
      if List.length (Predicate.atoms simplified) < List.length (Predicate.atoms spec.Pattern.pred)
      then
        emit "redundant-atom" Info (Some u)
          (Format.asprintf "conditions [%a] contain atoms implied by the rest" Predicate.pp
             spec.Pattern.pred)
          (Some (Format.asprintf "tighten to [%a]" Predicate.pp simplified))
  done;
  (* Disconnected pattern. *)
  let components = component_count pattern in
  if components > 1 then
    emit "disconnected" Warning None
      (Printf.sprintf
         "pattern splits into %d unconnected components; their matches are independent cross products"
         components)
      (Some "connect the components or issue them as separate queries");
  (* Duplicate nodes, named after the minimiser's merge decisions. *)
  List.iter
    (fun (leader, others) ->
      List.iter
        (fun u ->
          emit "duplicate-node" Info (Some u)
            (Printf.sprintf "node %s merged into %s by minimisation (same spec and edges)"
               (Pattern.name pattern u) (Pattern.name pattern leader))
            (Some "evaluate the minimised query instead (Pattern_opt.minimise)"))
        others)
    (Pattern_opt.merges pattern);
  (* Direct edges implied by a parallel two-edge path with tighter total
     bound: satisfying u ->(<=k1) w ->(<=k2) v forces a v-witness within
     k1+k2 hops, so the direct edge adds nothing when k1+k2 <= k. *)
  List.iter
    (fun (u, v, b) ->
      let subsumed_by w =
        if w = u || w = v then None
        else
          match (Pattern.bound_of pattern u w, Pattern.bound_of pattern w v) with
          | Some (Pattern.Bounded k1), Some (Pattern.Bounded k2) -> (
            match b with
            | Pattern.Unbounded -> Some w
            | Pattern.Bounded k when k1 + k2 <= k -> Some w
            | Pattern.Bounded _ -> None)
          | Some _, Some _ when b = Pattern.Unbounded -> Some w
          | _ -> None
      in
      let rec scan w = if w >= n then None else match subsumed_by w with Some _ as r -> r | None -> scan (w + 1) in
      match scan 0 with
      | None -> ()
      | Some w ->
        emit "subsumed-edge" Info (Some u)
          (Printf.sprintf "edge %s -> %s (%s) is implied by the path through %s"
             (Pattern.name pattern u) (Pattern.name pattern v) (bound_to_string b)
             (Pattern.name pattern w))
          (Some
             (Printf.sprintf "drop the edge %s -> %s" (Pattern.name pattern u)
                (Pattern.name pattern v))))
    (Pattern.edges pattern);
  List.stable_sort
    (fun a b -> compare (severity_rank a.severity, a.node) (severity_rank b.severity, b.node))
    (List.rev !diags)
