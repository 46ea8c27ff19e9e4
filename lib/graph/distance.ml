type scratch = {
  mark : int array; (* [mark.(w) = stamp]: the current search reached [w] *)
  queue : int array; (* the nodes reached, in BFS order: frontier and visited list *)
  mutable stamp : int; (* one per search, so no reset walk *)
  mutable visits : int; (* nodes reached over the scratch's lifetime *)
}

let make_scratch g =
  let n = max (Snapshot.node_count g) 1 in
  { mark = Array.make n 0; queue = Array.make n 0; stamp = 0; visits = 0 }

let visits s = s.visits

(* Core bounded BFS with nonempty-path semantics: the source is *not*
   marked up front, so it is reported iff it lies on a short cycle.
   Each node is queued at most once per search, so the queue never
   overflows; the distance of [queue.(i)] is its level, tracked by the
   level's end in the queue.  [enqueue] is {!Csr.enqueue_succ} or
   {!Csr.enqueue_pred}, whose int annotations keep the mark test and
   the stores monomorphic.  Every node queued counts as visited, also
   when [f] raises. *)
let bounded_bfs ~enqueue s g v k f =
  if k < 0 then invalid_arg "Distance: negative bound";
  if Array.length s.mark < Snapshot.node_count g then invalid_arg "Distance: scratch too small";
  if k > 0 then begin
    s.stamp <- s.stamp + 1;
    let csr = Snapshot.csr g in
    let mark = s.mark and stamp = s.stamp and queue = s.queue in
    let tail = ref (enqueue csr v ~mark ~stamp ~queue 0) in
    let head = ref 0 and d = ref 1 and level_end = ref !tail in
    match
      while !head < !tail do
        if !head = !level_end then begin
          incr d;
          level_end := !tail
        end;
        let w = queue.(!head) in
        incr head;
        f w !d;
        if !d < k then tail := enqueue csr w ~mark ~stamp ~queue !tail
      done
    with
    | () -> s.visits <- s.visits + !tail
    | exception e ->
      s.visits <- s.visits + !tail;
      raise e
  end

let ball s g v k f = bounded_bfs ~enqueue:Csr.enqueue_succ s g v k f

let reverse_ball s g v k f = bounded_bfs ~enqueue:Csr.enqueue_pred s g v k f

exception Found

let exists_within s g v k p =
  try
    ball s g v k (fun w _ -> if p w then raise Found);
    false
  with Found -> true

let eccentricity_bound g = Snapshot.node_count g
