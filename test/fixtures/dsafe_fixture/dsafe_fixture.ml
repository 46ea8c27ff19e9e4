(* Deliberately unsafe module: one module-level mutable binding of every
   class dsafe must detect, plus every banned construct.  test_dsafe
   asserts the analyzer reports all of them; nothing here is meant to
   run (the banned functions would misbehave if called). *)

(* ref cell *)
let counter = ref 0

(* hashtable, with the type ascription spelling (Tpat_alias pattern) *)
let table : (string, int) Hashtbl.t = Hashtbl.create 4

(* buffer *)
let buf = Buffer.create 16

(* array via creator function *)
let cells = Array.make 4 0

(* array literal *)
let literal = [| "a"; "b" |]

(* record type with a mutable field, plus a toplevel instance *)
type box = { mutable slot : int; tag : string }

let the_box = { slot = 0; tag = "fixture" }

(* instance minted by a helper: only the type-based fallback can see
   that [via_fn] is mutable *)
let mk () = { slot = 1; tag = "via-fn" }

let via_fn = mk ()

(* another unit's mutable record, minted by that unit's helper *)
let foreign = Cell.make ()

(* another unit's immutable [t]: not mutable state, although [Cell.t]
   is a mutable [t] too *)
let plain = Plain.make ()

(* lazy block *)
let page = lazy (Sys.getenv_opt "HOME")

(* mutable cell captured by a returned closure: module-level state in
   disguise *)
let next =
  let cell = ref 0 in
  fun () ->
    incr cell;
    !cell

(* intrinsically guarded sites: still in the inventory, tagged guarded *)
let guarded = Atomic.make 0

let lock = Mutex.create ()

(* banned constructs *)
let casted (x : int) : int = Obj.magic x

let seeded () = Random.self_init ()

let unmarshal (s : string) : int = Marshal.from_string s 0
