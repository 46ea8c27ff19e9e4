open Expfinder_graph
open Expfinder_pattern
open Expfinder_telemetry

let m_checks = Metrics.counter "verify.checks"

let m_errors = Metrics.counter "verify.errors"

(* A pair's edge constraints w.r.t. the relation itself: for every
   pattern edge (u,u') with bound k, a witness of sim(u') within a
   nonempty path of length <= k (unbounded: any finite length). *)
let edge_constraints_hold pattern g scratch m u v =
  List.for_all
    (fun (u', b) ->
      let k =
        match b with
        | Pattern.Bounded k -> k
        | Pattern.Unbounded -> Distance.eccentricity_bound g
      in
      let targets = Match_relation.matches_set m u' in
      Distance.exists_within scratch g v k (fun w -> Bitset.mem targets w))
    (Pattern.out_edges pattern u)

let check ?(max_pairs = 512) ?(max_candidates = 512) pattern g m =
  Counter.incr m_checks;
  let scratch = Distance.make_scratch g in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Pair validity, evenly strided over the pairs of each pattern node. *)
  let checked_pairs = ref 0 in
  let total = Match_relation.total m in
  let stride = max 1 (total / max_pairs) in
  let position = ref 0 in
  for u = 0 to Pattern.size pattern - 1 do
    List.iter
      (fun v ->
        if !position mod stride = 0 && !checked_pairs < max_pairs then begin
          incr checked_pairs;
          if not (Pattern.matches_node pattern u (Snapshot.label g v) (Snapshot.attrs g v)) then
            error "invalid pair (%s, %d): node fails the label/predicate check"
              (Pattern.name pattern u) v;
          if not (edge_constraints_hold pattern g scratch m u v) then
            error "invalid pair (%s, %d): some pattern edge has no witness in range"
              (Pattern.name pattern u) v
        end;
        incr position)
      (Match_relation.matches m u)
  done;
  (* Maximality spot checks: a candidate outside a *total* relation that
     satisfies every constraint would extend the kernel (constraints are
     monotone, so the union would still be a valid simulation). *)
  let checked_candidates = ref 0 in
  if Match_relation.is_total m then begin
    let n = Snapshot.node_count g in
    let stride = max 1 (n * Pattern.size pattern / max_candidates) in
    let position = ref 0 in
    for u = 0 to Pattern.size pattern - 1 do
      let spec = Pattern.node_spec pattern u in
      let consider v =
        if
          !position mod stride = 0
          && !checked_candidates < max_candidates
          && (not (Match_relation.mem m u v))
          && Predicate.eval spec.Pattern.pred (Snapshot.attrs g v)
        then begin
          incr checked_candidates;
          if edge_constraints_hold pattern g scratch m u v then
            error "relation is not maximal: candidate (%s, %d) satisfies every constraint"
              (Pattern.name pattern u) v
        end;
        incr position
      in
      match spec.Pattern.label with
      | Some l -> List.iter consider (Snapshot.nodes_with_label g l)
      | None -> Snapshot.iter_nodes g consider
    done
  end;
  Counter.add m_errors (List.length !errors);
  List.rev !errors

let check_exn ?max_pairs ?max_candidates pattern g m =
  match check ?max_pairs ?max_candidates pattern g m with
  | [] -> ()
  | errors ->
    failwith
      (Printf.sprintf "Verify.check: %d error(s): %s" (List.length errors)
         (String.concat "; " errors))

let semantically_equal a b =
  Match_relation.equal a b
  || ((not (Match_relation.is_total a)) && not (Match_relation.is_total b))

let differential_flag =
  ref
    (match Sys.getenv_opt "EXPFINDER_CHECK" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let differential () = !differential_flag

let set_differential v = differential_flag := v
