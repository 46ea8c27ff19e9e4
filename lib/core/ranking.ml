open Expfinder_telemetry

let m_ranked = Metrics.counter "ranking.ranked"

let m_pruned = Metrics.counter "ranking.pruned"

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

(* Working memory for one ranking call, reused across batches.  A state
   is a (node, direction) pair numbered [2i] (descendants of the source,
   forward edges) or [2i + 1] (ancestors, reverse edges).  Up to
   [Sys.int_size] matches share one level-synchronous search, each
   owning one bit (lane) of every word.  Every state has a [seen] word
   and a ring of C + 1 pending words, C the largest edge weight: at
   level d every pending distance lies in d .. d + C, so ring slot
   [d mod (C+1)] holds exactly the lanes that reach the state at
   distance d.  [queue] lists, per slot, the states whose pending word
   in that slot is non-zero ([len] of them, [queued] over all slots);
   [touched] lists the [settled] states whose [seen] word is non-zero,
   so ending a batch costs its own work, not |Vr|.  [slices] is a
   bit-sliced counter: bit l of [slices.(j)] is bit j of the number of
   states lane l settles at the current level. *)
type workspace = {
  fwd : Result_graph.adjacency;
  bwd : Result_graph.adjacency;
  slots : int;
  seen : int array;
  touched : int array;
  mutable settled : int;
  pending : int array;
  queue : int array;
  len : int array;
  mutable queued : int;
  slices : int array;
}

let make_workspace gr =
  let fwd = Result_graph.forward gr in
  let states = 2 * Result_graph.node_count gr in
  let slots = Array.fold_left max 0 fwd.weights + 1 in
  {
    fwd;
    bwd = Result_graph.backward gr;
    slots;
    seen = Array.make states 0;
    touched = Array.make states 0;
    settled = 0;
    pending = Array.make (slots * states) 0;
    queue = Array.make (slots * states) 0;
    len = Array.make slots 0;
    queued = 0;
    slices = Array.make Sys.int_size 0;
  }

let enqueue s slot st bits =
  let i = (st * s.slots) + slot in
  let old = s.pending.(i) in
  if old = 0 then begin
    let n = s.len.(slot) in
    s.queue.((slot * Array.length s.seen) + n) <- st;
    s.len.(slot) <- n + 1;
    s.queued <- s.queued + 1
  end;
  s.pending.(i) <- old lor bits

(* The ranking kernel.  Lane [l] ranks [batch.(l)], a (data node,
   compact index) pair: it settles the states reachable from that
   node's two in ascending distance, one level per distance, and sums
   the distances of all but those two (settled at level 0, which is
   never counted).  Its running average S/N therefore never decreases
   and bounds its final rank from below.  At the end of each level a
   lane that has settled something ([cnt > 0]: 0/0 is no bound) is
   dropped once S/N exceeds the bound [bnum/bden], or equals it while
   its data node exceeds [bid]; [bden = 0] disables the cutoff.
   Returns each lane's rank, [None] when dropped. *)
let settle s ~batch ~bnum ~bden ~bid =
  let lanes = Array.length batch and states = Array.length s.seen and slots = s.slots in
  let sum = Array.make lanes 0 and cnt = Array.make lanes 0 in
  let active = ref (if lanes = Sys.int_size then -1 else (1 lsl lanes) - 1) in
  Array.iteri
    (fun l (_, i) ->
      enqueue s 0 (2 * i) (1 lsl l);
      enqueue s 0 ((2 * i) + 1) (1 lsl l))
    batch;
  let d = ref 0 in
  while s.queued > 0 && !active <> 0 do
    let slot = !d mod slots in
    let base = slot * states and n = s.len.(slot) in
    let level = ref 0 and top = ref 0 in
    for j = 0 to n - 1 do
      let st = s.queue.(base + j) in
      let i = (st * slots) + slot in
      let f = s.pending.(i) land lnot s.seen.(st) land !active in
      s.pending.(i) <- 0;
      if f <> 0 then begin
        if s.seen.(st) = 0 then begin
          s.touched.(s.settled) <- st;
          s.settled <- s.settled + 1
        end;
        s.seen.(st) <- s.seen.(st) lor f;
        level := !level lor f;
        let carry = ref f and b = ref 0 in
        while !carry <> 0 do
          let c = s.slices.(!b) in
          s.slices.(!b) <- c lxor !carry;
          carry := c land !carry;
          incr b
        done;
        if !b > !top then top := !b;
        let node = st lsr 1 and dir = st land 1 in
        let adj = if dir = 0 then s.fwd else s.bwd in
        for p = adj.offsets.(node) to adj.offsets.(node + 1) - 1 do
          let t = (2 * adj.targets.(p)) + dir in
          let g = f land lnot s.seen.(t) in
          if g <> 0 then begin
            let q = slot + adj.weights.(p) in
            let q = if q >= slots then q - slots else q in
            enqueue s q t g
          end
        done
      end
    done;
    s.len.(slot) <- 0;
    s.queued <- s.queued - n;
    if !d > 0 then
      for l = 0 to lanes - 1 do
        if (!level lsr l) land 1 = 1 then begin
          let c = ref 0 in
          for b = !top - 1 downto 0 do
            c := (!c lsl 1) lor ((s.slices.(b) lsr l) land 1)
          done;
          sum.(l) <- sum.(l) + (!d * !c);
          cnt.(l) <- cnt.(l) + !c
        end;
        if bden > 0 && cnt.(l) > 0 && (!active lsr l) land 1 = 1 then begin
          let lhs = sum.(l) * bden and rhs = bnum * cnt.(l) in
          if lhs > rhs || (lhs = rhs && fst batch.(l) > bid) then
            active := !active land lnot (1 lsl l)
        end
      done;
    Array.fill s.slices 0 !top 0;
    incr d
  done;
  for slot = 0 to slots - 1 do
    for j = 0 to s.len.(slot) - 1 do
      s.pending.((s.queue.((slot * states) + j) * slots) + slot) <- 0
    done;
    s.len.(slot) <- 0
  done;
  s.queued <- 0;
  for j = 0 to s.settled - 1 do
    s.seen.(s.touched.(j)) <- 0
  done;
  s.settled <- 0;
  Array.init lanes (fun l ->
      if (!active lsr l) land 1 = 1 then Some { num = sum.(l); den = cnt.(l) } else None)

let index gr name v =
  match Result_graph.index_of gr v with
  | Some i -> i
  | None -> invalid_arg (name ^ ": node not in result graph")

let rank_of gr v =
  let i = index gr "Ranking.rank_of" v in
  match (settle (make_workspace gr) ~batch:[| (v, i) |] ~bnum:0 ~bden:0 ~bid:0).(0) with
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
  let matches =
    Array.of_list (List.map (fun v -> (v, index gr "Ranking.top_k" v)) output_matches)
  in
  let total = Array.length matches in
  let cap = min k total in
  if cap = 0 then []
  else begin
    let s = make_workspace gr in
    (* The best [cap] entries so far; once full, its maximum is the
       K-th best, the bound every later batch must beat. *)
    let best = ref Entries.empty and size = ref 0 in
    let ranked = ref 0 and pruned = ref 0 in
    let start = ref 0 in
    while !start < total do
      let batch = Array.sub matches !start (min Sys.int_size (total - !start)) in
      let bid, { num = bnum; den = bden } =
        if !size < cap then (0, { num = 0; den = 0 }) else Entries.max_elt !best
      in
      Array.iteri
        (fun l r ->
          match r with
          | None -> incr pruned
          | Some r ->
            incr ranked;
            best := Entries.add (fst batch.(l), r) !best;
            if !size < cap then incr size else best := Entries.remove (Entries.max_elt !best) !best)
        (settle s ~batch ~bnum ~bden ~bid);
      start := !start + Array.length batch
    done;
    Counter.add m_ranked !ranked;
    Counter.add m_pruned !pruned;
    annotate_int "ranked" !ranked;
    annotate_int "pruned" !pruned;
    Entries.elements !best
  end
