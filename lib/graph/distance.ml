module type GRAPH = Graph_intf.GRAPH

module Make (G : GRAPH) = struct
  type scratch = {
    dist : int array;
    queue : int array;
    mutable visited : int Vec.t;
    mutable visits : int; (* nodes reached over the scratch's lifetime *)
  }

  let make_scratch g =
    let n = G.node_count g in
    {
      dist = Array.make (max n 1) (-1);
      queue = Array.make (max n 1) 0;
      visited = Vec.create ~capacity:64 ~dummy:(-1) ();
      visits = 0;
    }

  let visits s = s.visits

  (* Runs after every search, normal or not: the visited list doubles as
     the visit count. *)
  let reset s =
    s.visits <- s.visits + Vec.length s.visited;
    Vec.iter (fun v -> s.dist.(v) <- -1) s.visited;
    Vec.clear s.visited

  (* Core bounded BFS with nonempty-path semantics: the source is *not*
     marked visited up front, so it is reported iff it lies on a short
     cycle.  [iter_next] selects forward or reverse edges. *)
  let bounded_bfs ~iter_next s g v k f =
    if k < 0 then invalid_arg "Distance: negative bound";
    if Array.length s.dist < G.node_count g then
      invalid_arg "Distance: scratch too small";
    if k > 0 then begin
      let head = ref 0 and tail = ref 0 in
      let push w d =
        s.dist.(w) <- d;
        Vec.push s.visited w;
        s.queue.(!tail) <- w;
        incr tail
      in
      iter_next g v (fun w -> if s.dist.(w) < 0 then push w 1);
      (try
         while !head < !tail do
           let w = s.queue.(!head) in
           incr head;
           let d = s.dist.(w) in
           f w d;
           if d < k then iter_next g w (fun x -> if s.dist.(x) < 0 then push x (d + 1))
         done
       with e ->
         reset s;
         raise e);
      reset s
    end

  let ball s g v k f = bounded_bfs ~iter_next:G.iter_succ s g v k f

  let reverse_ball s g v k f = bounded_bfs ~iter_next:G.iter_pred s g v k f

  exception Found

  let exists_within s g v k p =
    try
      ball s g v k (fun w _ -> if p w then raise Found);
      false
    with Found -> true

  let distances_from g src =
    let n = G.node_count g in
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      G.iter_succ g v (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w queue
          end)
    done;
    dist

  let eccentricity_bound g = G.node_count g
end

(* The snapshot instance, used pervasively by batch evaluation. *)
include Make (Snapshot)
