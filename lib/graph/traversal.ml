type node = int

let bfs_rev g sources f =
  let n = Csr.node_count g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Traversal.bfs_rev";
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    f v dist.(v);
    Csr.iter_pred g v (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
  done
