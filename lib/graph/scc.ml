type t = {
  comp : int array; (* node -> component id *)
  mutable ncomp : int;
  mutable member_lists : int list array;
}

(* Iterative Tarjan.  Each frame on [call_stack] is (node, next-successor
   index); [succ_cache] materialises successor arrays once per node so the
   frame index has something stable to walk. *)
let compute g =
  let n = Csr.node_count g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Vec.create ~dummy:(-1) () in
  let next_index = ref 0 in
  let ncomp = ref 0 in
  let call_nodes = Vec.create ~dummy:(-1) () in
  let call_pos = Vec.create ~dummy:(-1) () in
  let succ_of = Array.make (max n 1) [||] in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let push_frame v =
        index.(v) <- !next_index;
        lowlink.(v) <- !next_index;
        incr next_index;
        Vec.push stack v;
        on_stack.(v) <- true;
        succ_of.(v) <- Csr.succ_array g v;
        Vec.push call_nodes v;
        Vec.push call_pos 0
      in
      push_frame root;
      while not (Vec.is_empty call_nodes) do
        let v = Vec.top call_nodes in
        let pos = Vec.top call_pos in
        if pos < Array.length succ_of.(v) then begin
          Vec.set call_pos (Vec.length call_pos - 1) (pos + 1);
          let w = succ_of.(v).(pos) in
          if index.(w) < 0 then push_frame w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          ignore (Vec.pop call_nodes : int);
          ignore (Vec.pop call_pos : int);
          if lowlink.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              let w = Vec.pop stack in
              on_stack.(w) <- false;
              comp.(w) <- !ncomp;
              if w = v then continue := false
            done;
            incr ncomp
          end;
          if not (Vec.is_empty call_nodes) then begin
            let parent = Vec.top call_nodes in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          end
        end
      done
    end
  done;
  let member_lists = Array.make (max !ncomp 1) [] in
  for v = n - 1 downto 0 do
    member_lists.(comp.(v)) <- v :: member_lists.(comp.(v))
  done;
  { comp; ncomp = !ncomp; member_lists }

let count t = t.ncomp
