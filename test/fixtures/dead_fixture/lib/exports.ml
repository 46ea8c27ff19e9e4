let unused () = 0

let self_only () = 1

let via_alias () = self_only () + 1

let via_open () = 3

let via_bin () = 4

let via_test () = 5

module Inner = struct
  let nested_used () = 6

  let nested_unused () = 7
end
