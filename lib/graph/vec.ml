type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 8) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length v = v.len

let is_empty v = v.len = 0

let check v i name = if i < 0 || i >= v.len then invalid_arg name

let get v i =
  check v i "Vec.get";
  v.data.(i)

let set v i x =
  check v i "Vec.set";
  v.data.(i) <- x

let grow v =
  let data = Array.make (2 * Array.length v.data) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let top v =
  if v.len = 0 then invalid_arg "Vec.top";
  v.data.(v.len - 1)

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let find_index p v =
  let rec loop i =
    if i >= v.len then None else if p v.data.(i) then Some i else loop (i + 1)
  in
  loop 0

let remove_first p v =
  match find_index p v with
  | None -> false
  | Some i ->
    v.len <- v.len - 1;
    v.data.(i) <- v.data.(v.len);
    v.data.(v.len) <- v.dummy;
    true

let to_array v = Array.sub v.data 0 v.len

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }
