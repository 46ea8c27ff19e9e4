open Expfinder_graph

(* Successor-block signature of a node: its own block plus the sorted,
   deduplicated set of its successors' blocks. *)
let signature g block_of v =
  let succs = Csr.fold_succ g v (fun acc w -> block_of.(w) :: acc) [] in
  let succs = List.sort_uniq compare succs in
  (block_of.(v), succs)

module Sig_table = Hashtbl.Make (struct
  type t = int * int list

  let equal (b1, s1) (b2, s2) = b1 = b2 && List.equal Int.equal s1 s2

  let hash = Hashtbl.hash
end)

type outcome = Partition of int array | Over_limit of { pass : int; blocks : int }

let compute_within g ~key ~limit =
  let n = Csr.node_count g in
  let block_of = Array.make (max n 1) 0 in
  (* Initial partition (pass 0): intern the key. *)
  let key_ids = Hashtbl.create 64 in
  let nblocks = ref 0 in
  for v = 0 to n - 1 do
    let k = key v in
    match Hashtbl.find_opt key_ids k with
    | Some id -> block_of.(v) <- id
    | None ->
      Hashtbl.add key_ids k !nblocks;
      block_of.(v) <- !nblocks;
      incr nblocks
  done;
  (* Signature refinement to the fixpoint: each pass re-keys every node by
     (block, successor blocks); the block count is strictly increasing, so
     at most n passes.  Blocks only ever split, so a count over [limit]
     after any pass rules out a final count within it. *)
  let pass = ref 0 and changed = ref true in
  while !changed && !nblocks <= limit do
    incr pass;
    let table = Sig_table.create (2 * !nblocks) in
    let next = Array.make (max n 1) 0 in
    let count = ref 0 in
    for v = 0 to n - 1 do
      let s = signature g block_of v in
      match Sig_table.find_opt table s with
      | Some id -> next.(v) <- id
      | None ->
        Sig_table.add table s !count;
        next.(v) <- !count;
        incr count
    done;
    changed := !count <> !nblocks;
    nblocks := !count;
    Array.blit next 0 block_of 0 n
  done;
  if !nblocks > limit then Over_limit { pass = !pass; blocks = !nblocks }
  else Partition block_of

let compute g ~key =
  match compute_within g ~key ~limit:max_int with
  | Partition block_of -> block_of
  | Over_limit _ -> assert false (* no count exceeds [max_int] *)

let normalise block_of =
  let remap = Hashtbl.create 64 in
  let count = ref 0 in
  Array.map
    (fun b ->
      match Hashtbl.find_opt remap b with
      | Some id -> id
      | None ->
        Hashtbl.add remap b !count;
        incr count;
        !count - 1)
    block_of

let refine_local g ~key ~prev ~area =
  let n = Csr.node_count g in
  let block_of = Array.make (max n 1) 0 in
  let frozen_max = Array.fold_left max 0 (if Array.length prev = 0 then [| 0 |] else prev) in
  (* Frozen nodes keep their block; area nodes are re-keyed into a fresh
     id space so they never collide with frozen blocks. *)
  let next_id = ref (frozen_max + 1) in
  let key_ids = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    if Bitset.mem area v then begin
      let k = key v in
      match Hashtbl.find_opt key_ids k with
      | Some id -> block_of.(v) <- id
      | None ->
        Hashtbl.add key_ids k !next_id;
        block_of.(v) <- !next_id;
        incr next_id
    end
    else block_of.(v) <- (if v < Array.length prev then prev.(v) else 0)
  done;
  let area_blocks = ref (Hashtbl.length key_ids) in
  let changed = ref true in
  while !changed do
    let table = Sig_table.create 64 in
    let updates = ref [] in
    let count = ref 0 in
    Bitset.iter
      (fun v ->
        let s = signature g block_of v in
        let id =
          match Sig_table.find_opt table s with
          | Some id -> id
          | None ->
            let id = !next_id + !count in
            Sig_table.add table s id;
            incr count;
            id
        in
        updates := (v, id) :: !updates)
      area;
    changed := !count <> !area_blocks;
    area_blocks := !count;
    next_id := !next_id + !count;
    List.iter (fun (v, id) -> block_of.(v) <- id) !updates
  done;
  normalise block_of

let block_count block_of = Array.fold_left max (-1) block_of + 1
