open Expfinder_graph
open Expfinder_pattern

type t = { sets : Bitset.t array; graph_size : int }

let create ~pattern_size ~graph_size =
  if pattern_size < 1 then invalid_arg "Match_relation.create";
  { sets = Array.init pattern_size (fun _ -> Bitset.create graph_size); graph_size }

let pattern_size t = Array.length t.sets

let graph_size t = t.graph_size

let check t u = if u < 0 || u >= pattern_size t then invalid_arg "Match_relation: bad pattern node"

let mem t u v =
  check t u;
  Bitset.mem t.sets.(u) v

let add t u v =
  check t u;
  Bitset.add t.sets.(u) v

let remove t u v =
  check t u;
  Bitset.remove t.sets.(u) v

let matches t u =
  check t u;
  Bitset.to_list t.sets.(u)

let matches_set t u =
  check t u;
  t.sets.(u)

let count t u =
  check t u;
  Bitset.cardinal t.sets.(u)

let total t = Array.fold_left (fun acc s -> acc + Bitset.cardinal s) 0 t.sets

let is_total t = Array.for_all (fun s -> not (Bitset.is_empty s)) t.sets

let clear t = Array.iter Bitset.clear t.sets

let pairs t =
  let out = ref [] in
  for u = 0 to pattern_size t - 1 do
    List.iter (fun v -> out := (u, v) :: !out) (matches t u)
  done;
  List.rev !out

let of_pairs ~pattern_size ~graph_size pair_list =
  let t = create ~pattern_size ~graph_size in
  List.iter (fun (u, v) -> add t u v) pair_list;
  t

(* Decimal width of [n >= 0]. *)
let digits n =
  let rec go n d = if n < 10 then d else go (n / 10) (d + 1) in
  go n 1

(* Writes [n >= 0] in decimal at [pos]; returns the position after it. *)
let put_int b pos n =
  let len = digits n in
  let n = ref n in
  for i = pos + len - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  pos + len

(* Canonical content digest: pattern size plus every (u, v) pair in
   lexicographic order, hashed with MD5.  Two relations digest equally
   iff they hold the same pairs over the same pattern size, regardless
   of graph_size padding — the stability the qlog/replay loop needs
   across processes.  The text ("n|0,v,v|1,v...") is written into one
   buffer sized for the widest possible id, straight from the bitsets. *)
let digest t =
  let n = pattern_size t in
  let width = 1 + digits (max 0 (t.graph_size - 1)) in
  let b = Bytes.create (digits n + (n * (1 + digits n)) + (total t * width)) in
  let pos = ref (put_int b 0 n) in
  for u = 0 to n - 1 do
    Bytes.set b !pos '|';
    pos := put_int b (!pos + 1) u;
    Bitset.iter
      (fun v ->
        Bytes.set b !pos ',';
        pos := put_int b (!pos + 1) v)
      t.sets.(u)
  done;
  Digest.to_hex (Digest.subbytes b 0 !pos)

let copy t = { sets = Array.map Bitset.copy t.sets; graph_size = t.graph_size }

let equal a b =
  pattern_size a = pattern_size b
  && Array.for_all2 Bitset.equal a.sets b.sets

let pp pattern ppf t =
  Format.fprintf ppf "{@[<hv>";
  for u = 0 to pattern_size t - 1 do
    if u > 0 then Format.fprintf ppf ";@ ";
    Format.fprintf ppf "%s -> [%a]" (Pattern.name pattern u)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         Format.pp_print_int)
      (matches t u)
  done;
  Format.fprintf ppf "@]}"
