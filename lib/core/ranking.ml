open Expfinder_telemetry

type rank = { num : int; den : int }

let rank_to_float r = if r.den = 0 then infinity else float_of_int r.num /. float_of_int r.den

let compare_rank a b =
  match (a.den, b.den) with
  | 0, 0 -> 0
  | 0, _ -> 1
  | _, 0 -> -1
  | _ -> compare (a.num * b.den) (b.num * a.den)

let pp_rank ppf r =
  if r.den = 0 then Format.pp_print_string ppf "inf"
  else Format.fprintf ppf "%d/%d (%.2f)" r.num r.den (rank_to_float r)

(* Working memory for one ranking call, reused across matches.  A state
   is a (node, direction) pair numbered [2i] (descendants of the source,
   forward edges) or [2i + 1] (ancestors, reverse edges).  The Dial
   bucket queue keeps one doubly-linked list per distance modulo C + 1,
   C the largest edge weight: every queued distance lies within C of
   the one being settled, so each bucket holds a single distance.
   [mark.(s)] is [2 * epoch] while [s] is queued and [2 * epoch + 1] once
   settled; [head_mark.(b)] says whether [head.(b)] belongs to the
   current epoch.  Starting a match bumps the epoch, which empties every
   list and unsettles every state in O(1). *)
type workspace = {
  fwd : Result_graph.adjacency;
  bwd : Result_graph.adjacency;
  dist : int array;
  mark : int array;
  next : int array;
  prev : int array;
  head : int array;
  head_mark : int array;
  mutable epoch : int;
}

let make_workspace gr =
  let fwd = Result_graph.forward gr in
  let states = 2 * Result_graph.node_count gr in
  let buckets = Array.fold_left max 0 fwd.weights + 1 in
  {
    fwd;
    bwd = Result_graph.backward gr;
    dist = Array.make states 0;
    mark = Array.make states 0;
    next = Array.make states (-1);
    prev = Array.make states (-1);
    head = Array.make buckets (-1);
    head_mark = Array.make buckets 0;
    epoch = 0;
  }

let push s st d =
  let b = d mod Array.length s.head in
  if s.head_mark.(b) <> s.epoch then begin
    s.head_mark.(b) <- s.epoch;
    s.head.(b) <- -1
  end;
  let h = s.head.(b) in
  s.next.(st) <- h;
  s.prev.(st) <- -1;
  if h >= 0 then s.prev.(h) <- st;
  s.head.(b) <- st;
  s.dist.(st) <- d;
  s.mark.(st) <- 2 * s.epoch

let unlink s st =
  let p = s.prev.(st) and n = s.next.(st) in
  if p >= 0 then s.next.(p) <- n else s.head.(s.dist.(st) mod Array.length s.head) <- n;
  if n >= 0 then s.prev.(n) <- p

(* The ranking kernel: settle the states of compact index [src] (data
   node [v]) in one ascending order and sum the distances of every
   state but the source's own two.  Distances settle in ascending
   order, so the running average S/N never decreases and bounds the
   final rank from below; the match is dropped ([None]) as soon as S/N
   exceeds the bound [bnum/bden], or equals it while [v > bid].
   [bden = 0] disables the cutoff. *)
let settle s ~src ~v ~bnum ~bden ~bid =
  s.epoch <- s.epoch + 1;
  let buckets = Array.length s.head in
  let queued = 2 * s.epoch in
  push s (2 * src) 0;
  push s ((2 * src) + 1) 0;
  let pending = ref 2 and cur = ref 0 and sum = ref 0 and count = ref 0 in
  let pruned = ref false in
  while !pending > 0 && not !pruned do
    let b = ref (!cur mod buckets) in
    while s.head_mark.(!b) <> s.epoch || s.head.(!b) < 0 do
      incr cur;
      b := if !b + 1 = buckets then 0 else !b + 1
    done;
    let st = s.head.(!b) and d = !cur in
    unlink s st;
    s.mark.(st) <- queued + 1;
    decr pending;
    let node = st lsr 1 in
    if node <> src then begin
      sum := !sum + d;
      incr count;
      if bden > 0 then begin
        let lhs = !sum * bden and rhs = bnum * !count in
        if lhs > rhs || (lhs = rhs && v > bid) then pruned := true
      end
    end;
    if not !pruned then begin
      let dir = st land 1 in
      let adj = if dir = 0 then s.fwd else s.bwd in
      for p = adj.offsets.(node) to adj.offsets.(node + 1) - 1 do
        let t = (2 * adj.targets.(p)) + dir and nd = d + adj.weights.(p) in
        let mt = s.mark.(t) in
        if mt < queued then begin
          push s t nd;
          incr pending
        end
        else if mt = queued && nd < s.dist.(t) then begin
          unlink s t;
          push s t nd
        end
      done
    end
  done;
  if !pruned then None else Some { num = !sum; den = !count }

let index gr name v =
  match Result_graph.index_of gr v with
  | Some i -> i
  | None -> invalid_arg (name ^ ": node not in result graph")

let rank_of gr v =
  let i = index gr "Ranking.rank_of" v in
  match settle (make_workspace gr) ~src:i ~v ~bnum:0 ~bden:0 ~bid:0 with
  | Some r -> r
  | None -> assert false

(* Answer order: ascending rank, then node id. *)
let compare_entry (v1, r1) (v2, r2) =
  let c = compare_rank r1 r2 in
  if c <> 0 then c else compare v1 v2

module Entries = Set.Make (struct
  type t = int * rank

  let compare = compare_entry
end)

let top_k gr ~output_matches ~k =
  if k < 0 then invalid_arg "Ranking.top_k";
  let matches = List.map (fun v -> (v, index gr "Ranking.top_k" v)) output_matches in
  let cap = min k (List.length matches) in
  if cap = 0 then []
  else begin
    let s = make_workspace gr in
    (* The best [cap] entries so far; once full, its maximum is the
       K-th best, the bound every later match must beat. *)
    let best = ref Entries.empty and size = ref 0 in
    let ranked = ref 0 and pruned = ref 0 in
    List.iter
      (fun (v, i) ->
        let worst = if !size < cap then None else Some (Entries.max_elt !best) in
        let bid, { num = bnum; den = bden } =
          Option.value worst ~default:(0, { num = 0; den = 0 })
        in
        match settle s ~src:i ~v ~bnum ~bden ~bid with
        | None -> incr pruned
        | Some r -> (
          incr ranked;
          match worst with
          | None ->
            best := Entries.add (v, r) !best;
            incr size
          | Some w ->
            if compare_entry (v, r) w < 0 then best := Entries.add (v, r) (Entries.remove w !best)))
      matches;
    Counter.add (Metrics.counter "ranking.ranked") !ranked;
    Counter.add (Metrics.counter "ranking.pruned") !pruned;
    annotate_int "ranked" !ranked;
    annotate_int "pruned" !pruned;
    Entries.elements !best
  end
