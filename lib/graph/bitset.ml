type t = { words : int array; capacity : int }

let bits_per_word = 63
(* OCaml ints are 63-bit on 64-bit platforms; using 63 bits per word keeps
   the implementation portable without Int64 boxing. *)

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n / bits_per_word) + 1) 0; capacity = n }

let check t i = if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of bounds"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* Branch-free SWAR popcount: per-2-bit, per-4-bit, then per-byte
   counts, summed into the top byte by one multiply.  The 64-bit masks
   truncate to the 63-bit word (bit 62 pairs with an absent bit 63), and
   the total, at most 63, fits the seven bits left above bit 56. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* Index of the lowest set bit of a nonzero word: a binary search over
   halves, so six steps whatever the bit (bit 62 is the sign bit, hence
   the logical shifts). *)
let lowest_bit x =
  let x = ref x and n = ref 0 in
  if !x land 0xFFFF_FFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

(* [f] on the index of each set bit of [word], the [w]-th word. *)
let iter_word f w word =
  let word = ref word in
  while !word <> 0 do
    f ((w * bits_per_word) + lowest_bit !word);
    word := !word land (!word - 1)
  done

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    iter_word f w t.words.(w)
  done

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let iter_xor f a b =
  same_capacity a b;
  for w = 0 to Array.length a.words - 1 do
    iter_word f w (a.words.(w) lxor b.words.(w))
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let equal a b = a.capacity = b.capacity && Array.for_all2 ( = ) a.words b.words
