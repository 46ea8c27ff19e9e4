(* Builders the suites share.  They sit on the library's public API;
   the library itself has no caller for them. *)

open Expfinder_graph
open Expfinder_pattern

(* A graph with [Array.length labels] nodes and the given edges;
   duplicate edges are dropped, self-loops kept. *)
let of_edges ?(attrs = fun _ -> Attrs.empty) ~labels edges =
  let g = Digraph.create ~capacity:(Array.length labels) () in
  Array.iteri (fun i l -> ignore (Digraph.add_node g ~attrs:(attrs i) l : int)) labels;
  List.iter (fun (u, v) -> ignore (Digraph.add_edge g u v : bool)) edges;
  g

let coin rng = Prng.int rng 2 = 0

(* One generated pattern: the first of [Pattern_gen.generate_many]. *)
let generate rng config ~labels = List.hd (Pattern_gen.generate_many rng config ~labels 1)

(* Single-atom predicates. *)
let atom attr op value = Predicate.of_atoms [ { Predicate.attr; op; value } ]

let eq_int attr v = atom attr Predicate.Eq (Attr.Int v)

let le_int attr v = atom attr Predicate.Le (Attr.Int v)

let gt_int attr v = atom attr Predicate.Gt (Attr.Int v)

let lt_int attr v = atom attr Predicate.Lt (Attr.Int v)

(* Run a file loader on [text] through a temporary file. *)
let load_text load text =
  let path = Filename.temp_file "expfinder_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      load path)

(* Save then load through a temporary file. *)
let roundtrip save load x =
  let path = Filename.temp_file "expfinder_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      save x path;
      load path)

(* Every pair of [m] satisfies its node condition and its edge
   constraints w.r.t. [m] ({!Verify} checks them all), and sampled pairs
   outside a total [m] do not. *)
let verified pattern g m =
  match Expfinder_core.Verify.check_exn ~max_pairs:max_int pattern g m with
  | () -> true
  | exception Failure _ -> false

(* Minted ids: 32 (trace) or 16 (span) lowercase hex digits, not all
   zero. *)
let valid_hex_id ~length s =
  String.length s = length
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  && String.exists (( <> ) '0') s

let valid_trace_id = valid_hex_id ~length:32

let valid_span_id = valid_hex_id ~length:16

(* Span trees, read through {!Expfinder_telemetry.Span.to_json}:
   [{name; duration_ms; attrs; children}]. *)
module Json = Expfinder_telemetry.Json

let span_json = Expfinder_telemetry.Span.to_json

let span_name j = Option.value ~default:"" (Option.bind (Json.member "name" j) Json.str_opt)

let span_children j =
  match Json.member "children" j with Some (Json.Arr kids) -> kids | _ -> []

let rec preorder j = span_name j :: List.concat_map preorder (span_children j)

(* Every span name in the tree, depth-first, parents first. *)
let span_names s = preorder (span_json s)

(* First span (the root included) with the given name, depth-first. *)
let span_find s name =
  let rec go j = if span_name j = name then Some j else List.find_map go (span_children j) in
  go (span_json s)

let span_attrs j =
  match Json.member "attrs" j with
  | Some (Json.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.str_opt v)) kvs
  | _ -> []

let float_of_json = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

(* The trace store as [/traces.json] shows it. *)
let stored_traces () =
  match Json.member "traces" (Expfinder_telemetry.Tracestore.to_json ()) with
  | Some (Json.Arr traces) -> List.filter_map Expfinder_telemetry.Tracestore.stored_of_json traces
  | _ -> []

let find_trace id =
  List.find_opt (fun s -> s.Expfinder_telemetry.Tracestore.strace_id = id) (stored_traces ())

let traces_seen () =
  match Json.member "seen" (Expfinder_telemetry.Tracestore.to_json ()) with
  | Some (Json.Int n) -> n
  | _ -> -1

(* The weight of Gr's edge [v -> v'], read off the drill-down of every
   pattern node. *)
let gr_weight pattern g gr v v' =
  List.init (Pattern.size pattern) Fun.id
  |> List.concat_map (Expfinder_core.Result_graph.drill_down pattern g gr)
  |> List.find_map (fun (d : Expfinder_core.Result_graph.detail) ->
         if d.data_node = v then List.assoc_opt v' d.out_edges else None)

(* A partition respects [key] and is stable: two nodes of one block have
   successors in exactly the same set of blocks. *)
let is_stable g ~key block_of =
  let signature v =
    let blocks = ref [] in
    Csr.iter_succ g v (fun w -> blocks := block_of.(w) :: !blocks);
    List.sort_uniq compare !blocks
  in
  let reps = Hashtbl.create 64 in
  List.for_all
    (fun v ->
      let s = (key v, signature v) in
      match Hashtbl.find_opt reps block_of.(v) with
      | None ->
        Hashtbl.add reps block_of.(v) s;
        true
      | Some s' -> s = s')
    (List.init (Csr.node_count g) Fun.id)
