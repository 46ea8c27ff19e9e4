(* Dsafe: domain-safety static analysis over compiler-emitted
   typedtrees.

   The analysis reads the .cmt/.cmti files dune leaves under _build and
   produces a machine-checked inventory of everything that stands
   between this codebase and OCaml 5 domains:

   - every module-level mutable binding (toplevel [ref], [Hashtbl],
     [Buffer], mutable-field records, arrays, [lazy], and mutable cells
     captured by returned closures), because each one is shared state
     the moment two domains run the read path;
   - hazardous constructs that are banned outright ([Obj.magic],
     [Marshal.from_*] on wire input, [Random.self_init]);
   - mutable types leaking through the interfaces of the read path
     ({!Snapshot} and {!Csr}), whose deep immutability the
     snapshot/epoch model depends on.

   Findings are keyed by a stable id ("<source-file>:<Module.binding>")
   and gated against a checked-in allowlist: the ratchet.  A finding
   without an allowlist entry fails the gate (new shared mutable state
   cannot slip in silently); an allowlist entry without a finding is
   stale and also fails (the list can only shrink honestly). *)

open Expfinder_telemetry

(* ------------------------------------------------------------------ *)
(* Finding model *)

type mclass =
  | Ref_cell
  | Hashtable
  | Buffer_
  | Mutable_array
  | Bytes_
  | Mutable_record
  | Lazy_block
  | Queue_
  | Stack_
  | Weak_
  | Atomic_cell
  | Mutex_lock
  | Condition_var
  | Captured_state
  | Named_mutable of string

let mclass_name = function
  | Ref_cell -> "ref"
  | Hashtable -> "hashtbl"
  | Buffer_ -> "buffer"
  | Mutable_array -> "array"
  | Bytes_ -> "bytes"
  | Mutable_record -> "mutable-record"
  | Lazy_block -> "lazy"
  | Queue_ -> "queue"
  | Stack_ -> "stack"
  | Weak_ -> "weak"
  | Atomic_cell -> "atomic"
  | Mutex_lock -> "mutex"
  | Condition_var -> "condition"
  | Captured_state -> "captured-closure-state"
  | Named_mutable n -> "mutable-type:" ^ n

type kind =
  | Mutable_binding of mclass
  | Banned of string
  | Signature_leak of string  (** the offending type constructor *)

let kind_name = function
  | Mutable_binding c -> mclass_name c
  | Banned c -> "banned:" ^ c
  | Signature_leak c -> "sig-leak:" ^ c

(* Atomic.t and Mutex.t are still mutable state — they stay in the
   inventory — but they carry their guarding discipline in the type, so
   the report marks them as intrinsically guarded. *)
let intrinsically_guarded = function
  | Mutable_binding (Atomic_cell | Mutex_lock | Condition_var) -> true
  | Mutable_binding _ | Banned _ | Signature_leak _ -> false

type finding = {
  id : string;
  file : string;
  line : int;
  kind : kind;
  detail : string;
}

(* ------------------------------------------------------------------ *)
(* Path-name matching *)

(* [Path.name] renders "Stdlib.Hashtbl.create" or "Hashtbl.create"
   depending on how the source resolved the module; suffix matching on
   a '.'-boundary accepts both without also accepting
   "MyHashtbl.create". *)
let path_has_suffix name suffix =
  let ln = String.length name and ls = String.length suffix in
  ln >= ls
  && String.sub name (ln - ls) ls = suffix
  && (ln = ls || name.[ln - ls - 1] = '.')

let any_suffix name suffixes = List.exists (path_has_suffix name) suffixes

(* Creator functions whose application at module level mints a mutable
   value of a known class. *)
let class_of_creator name =
  if any_suffix name [ "Stdlib.ref"; "ref" ] then Some Ref_cell
  else if any_suffix name [ "Hashtbl.create"; "Hashtbl.of_seq" ] then Some Hashtable
  else if any_suffix name [ "Buffer.create" ] then Some Buffer_
  else if
    any_suffix name
      [ "Array.make"; "Array.create_float"; "Array.init"; "Array.of_list"; "Array.copy" ]
  then Some Mutable_array
  else if any_suffix name [ "Bytes.create"; "Bytes.make"; "Bytes.of_string" ] then Some Bytes_
  else if any_suffix name [ "Queue.create" ] then Some Queue_
  else if any_suffix name [ "Stack.create" ] then Some Stack_
  else if any_suffix name [ "Weak.create" ] then Some Weak_
  else if any_suffix name [ "Atomic.make" ] then Some Atomic_cell
  else if any_suffix name [ "Mutex.create" ] then Some Mutex_lock
  else if any_suffix name [ "Condition.create" ] then Some Condition_var
  else if any_suffix name [ "Lazy.from_fun"; "Lazy.from_val" ] then Some Lazy_block
  else None

(* Type constructors that denote mutable storage wherever they appear. *)
let class_of_type_head name =
  if any_suffix name [ "Stdlib.ref"; "ref" ] then Some Ref_cell
  else if any_suffix name [ "Hashtbl.t" ] then Some Hashtable
  else if any_suffix name [ "Buffer.t" ] then Some Buffer_
  else if name = "array" then Some Mutable_array
  else if name = "bytes" then Some Bytes_
  else if any_suffix name [ "Queue.t" ] then Some Queue_
  else if any_suffix name [ "Stack.t" ] then Some Stack_
  else if any_suffix name [ "Weak.t" ] then Some Weak_
  else if any_suffix name [ "Atomic.t" ] then Some Atomic_cell
  else if any_suffix name [ "Mutex.t" ] then Some Mutex_lock
  else if any_suffix name [ "Condition.t" ] then Some Condition_var
  else if name = "lazy_t" || any_suffix name [ "Lazy.t" ] then Some Lazy_block
  else None

let banned_idents =
  [
    ("Obj.magic", "unchecked cast defeats every type-based safety argument");
    ("Obj.repr", "raw object surgery defeats every type-based safety argument");
    ("Marshal.from_channel", "deserializing wire input can execute arbitrary reads");
    ("Marshal.from_string", "deserializing wire input can execute arbitrary reads");
    ("Marshal.from_bytes", "deserializing wire input can execute arbitrary reads");
    ("Random.self_init", "nondeterministic seeding breaks replay verification");
  ]

let banned_of_path name =
  List.find_map
    (fun (b, why) -> if path_has_suffix name ("Stdlib." ^ b) || path_has_suffix name b then Some (b, why) else None)
    banned_idents

(* ------------------------------------------------------------------ *)
(* Type-expression walking *)

(* Record types declared with mutable fields anywhere in the scanned
   units, as '.'-boundary suffix keys ("Jsonl_sink.t"): pass 1 collects
   them so pass 2 can classify a binding like [let sink = Jsonl_sink.create ...]
   whose creator is not a known stdlib function. *)
type mutable_types = (string, unit) Hashtbl.t

let mutable_type_match (mt : mutable_types) name =
  Hashtbl.fold
    (fun suffix () acc ->
      match acc with Some _ -> acc | None -> if path_has_suffix name suffix then Some suffix else None)
    mt None

(* First mutable constructor reachable in a type expression, looking
   through tuples, type parameters and (when [through_arrows]) function
   results.  Recursive types are cut off by the visited set. *)
let type_mutable_head ?(through_arrows = false) (mt : mutable_types) ty =
  let visited = Hashtbl.create 16 in
  let rec go ty =
    let id = Types.get_id ty in
    if Hashtbl.mem visited id then None
    else begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Types.Tconstr (path, args, _) -> (
        let name = Path.name path in
        match class_of_type_head name with
        | Some c -> Some (c, name)
        | None -> (
          match mutable_type_match mt name with
          | Some suffix -> Some (Named_mutable suffix, name)
          | None -> List.find_map go args))
      | Types.Ttuple parts -> List.find_map go parts
      | Types.Tarrow (_, _, result, _) -> if through_arrows then go result else None
      | Types.Tpoly (ty, _) -> go ty
      | _ -> None
    end
  in
  go ty

(* ------------------------------------------------------------------ *)
(* Pass 1: collect locally-declared mutable record types *)

let collect_mutable_types structures =
  let mt : mutable_types = Hashtbl.create 32 in
  List.iter
    (fun (str : Typedtree.structure) ->
      let rec walk prefix (items : Typedtree.structure_item list) =
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.Typedtree.str_desc with
            | Typedtree.Tstr_type (_, decls) ->
              List.iter
                (fun (d : Typedtree.type_declaration) ->
                  let is_mutable =
                    match d.Typedtree.typ_kind with
                    | Typedtree.Ttype_record labels ->
                      List.exists
                        (fun (l : Typedtree.label_declaration) ->
                          l.Typedtree.ld_mutable = Asttypes.Mutable)
                        labels
                    | _ -> false
                  in
                  if is_mutable then
                    let key =
                      String.concat "."
                        (List.rev (Ident.name d.Typedtree.typ_id :: prefix))
                    in
                    Hashtbl.replace mt key ())
                decls
            | Typedtree.Tstr_module mb -> walk_module prefix mb
            | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
            | _ -> ())
          items
      and walk_module prefix (mb : Typedtree.module_binding) =
        let name =
          match mb.Typedtree.mb_id with Some id -> Some (Ident.name id) | None -> None
        in
        let rec strip (me : Typedtree.module_expr) =
          match me.Typedtree.mod_desc with
          | Typedtree.Tmod_structure s -> Some s
          | Typedtree.Tmod_constraint (inner, _, _, _) -> strip inner
          | _ -> None
        in
        match (name, strip mb.Typedtree.mb_expr) with
        | Some n, Some s -> walk (n :: prefix) s.Typedtree.str_items
        | _ -> ()
      in
      walk [] str.Typedtree.str_items)
    structures;
  mt

(* ------------------------------------------------------------------ *)
(* Pass 2a: module-level mutable bindings *)

let rec is_function_expr (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> true
  | Typedtree.Texp_let (_, _, body) -> is_function_expr body
  | _ -> false

(* Classify the shape of a binding's right-hand side; [None] means the
   shape alone proves nothing and the caller falls back to the type. *)
let rec classify_expr (mt : mutable_types) (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _) -> (
    match f.Typedtree.exp_desc with
    | Typedtree.Texp_ident (path, _, _) -> class_of_creator (Path.name path)
    | _ -> None)
  | Typedtree.Texp_record { fields; _ } ->
    if
      Array.exists
        (fun ((ld : Types.label_description), _) -> ld.Types.lbl_mut = Asttypes.Mutable)
        fields
    then Some Mutable_record
    else None
  | Typedtree.Texp_array _ -> Some Mutable_array
  | Typedtree.Texp_lazy _ -> Some Lazy_block
  | Typedtree.Texp_sequence (_, e2) -> classify_expr mt e2
  | Typedtree.Texp_ifthenelse (_, e1, Some e2) -> (
    match classify_expr mt e1 with Some c -> Some c | None -> classify_expr mt e2)
  | Typedtree.Texp_let (_, vbs, body) -> (
    match classify_expr mt body with
    | Some c -> Some c
    | None ->
      (* [let cell = ref 0 in fun () -> ...]: module-level state hiding
         behind a closure.  The cell outlives every call and is shared
         exactly like a toplevel ref. *)
      if
        is_function_expr body
        && List.exists
             (fun (vb : Typedtree.value_binding) ->
               classify_expr mt vb.Typedtree.vb_expr <> None)
             vbs
      then Some Captured_state
      else None)
  | _ -> None

let type_to_string ty =
  Format.asprintf "%a" Printtyp.type_expr ty

let scan_bindings ~file (mt : mutable_types) (str : Typedtree.structure) =
  let findings = ref [] in
  let add ~prefix ~name ~line kind detail =
    let qual = String.concat "." (List.rev (name :: prefix)) in
    findings := { id = file ^ ":" ^ qual; file; line; kind; detail } :: !findings
  in
  let rec walk prefix items =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              (* [let x = e] is Tpat_var; the annotated form
                 [let x : t = e] typechecks to Tpat_alias(Tpat_any, x). *)
              match vb.Typedtree.vb_pat.Typedtree.pat_desc with
              | Typedtree.Tpat_var (ident, _)
              | Typedtree.Tpat_alias
                  ({ Typedtree.pat_desc = Typedtree.Tpat_any; _ }, ident, _) -> (
                let name = Ident.name ident in
                let line = vb.Typedtree.vb_loc.Location.loc_start.Lexing.pos_lnum in
                let expr = vb.Typedtree.vb_expr in
                match classify_expr mt expr with
                | Some c ->
                  add ~prefix ~name ~line (Mutable_binding c)
                    (type_to_string expr.Typedtree.exp_type)
                | None ->
                  (* A function value owns no storage of its own (the
                     captured-state case was handled by the shape
                     check); anything else is classified by its type,
                     which catches constructors hidden behind helper
                     calls like [Jsonl_sink.create]. *)
                  if not (is_function_expr expr) then (
                    match type_mutable_head mt expr.Typedtree.exp_type with
                    | Some (c, head) ->
                      add ~prefix ~name ~line (Mutable_binding c)
                        (Printf.sprintf "%s (via type %s)"
                           (type_to_string expr.Typedtree.exp_type)
                           head)
                    | None -> ()))
              | _ -> ())
            vbs
        | Typedtree.Tstr_module mb -> walk_module prefix mb
        | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
        | Typedtree.Tstr_include incl -> (
          match incl.Typedtree.incl_mod.Typedtree.mod_desc with
          | Typedtree.Tmod_structure s -> walk prefix s.Typedtree.str_items
          | _ -> ())
        | _ -> ())
      items
  and walk_module prefix (mb : Typedtree.module_binding) =
    (* Functor bodies are skipped: their bindings are per-instantiation,
       owned by whoever holds the resulting module, not process-global
       singletons. *)
    let rec strip (me : Typedtree.module_expr) =
      match me.Typedtree.mod_desc with
      | Typedtree.Tmod_structure s -> Some s
      | Typedtree.Tmod_constraint (inner, _, _, _) -> strip inner
      | _ -> None
    in
    match (mb.Typedtree.mb_id, strip mb.Typedtree.mb_expr) with
    | Some id, Some s -> walk (Ident.name id :: prefix) s.Typedtree.str_items
    | _ -> ()
  in
  walk [] str.Typedtree.str_items;
  !findings

(* ------------------------------------------------------------------ *)
(* Pass 2b: banned constructs, anywhere in the unit *)

let scan_banned ~file (str : Typedtree.structure) =
  (* One finding per (file, construct), with every use line in the
     detail: line-stable ids keep the allowlist from churning. *)
  let hits : (string, string * int list ref) Hashtbl.t = Hashtbl.create 4 in
  let super = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (path, _, _) -> (
      match banned_of_path (Path.name path) with
      | Some (construct, why) -> (
        let line = e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum in
        match Hashtbl.find_opt hits construct with
        | Some (_, lines) -> lines := line :: !lines
        | None -> Hashtbl.replace hits construct (why, ref [ line ]))
      | None -> ())
    | _ -> ());
    super.Tast_iterator.expr sub e
  in
  let iter = { super with Tast_iterator.expr } in
  iter.Tast_iterator.structure iter str;
  Hashtbl.fold
    (fun construct (why, lines) acc ->
      let lines = List.sort_uniq compare !lines in
      {
        id = file ^ ":banned." ^ construct;
        file;
        line = (match lines with l :: _ -> l | [] -> 0);
        kind = Banned construct;
        detail =
          Printf.sprintf "%s (line%s %s)" why
            (if List.length lines > 1 then "s" else "")
            (String.concat ", " (List.map string_of_int lines));
      }
      :: acc)
    hits []

(* ------------------------------------------------------------------ *)
(* Pass 2c: read-path signature audit *)

(* The read path must stay deeply immutable: every value reachable
   through these interfaces is handed to concurrent readers once domains
   land.  The read path is {!Snapshot} and {!Csr}. *)
let read_path_basenames = [ "snapshot.mli"; "csr.mli" ]

let scan_signature ~file (mt : mutable_types) (sg : Types.signature) =
  let findings = ref [] in
  let add ~prefix ~name ~kindword head detail =
    let qual = String.concat "." (List.rev (name :: prefix)) in
    ignore kindword;
    findings :=
      { id = file ^ ":" ^ qual; file; line = 0; kind = Signature_leak head; detail }
      :: !findings
  in
  let rec walk prefix (sg : Types.signature) =
    List.iter
      (fun item ->
        match item with
        | Types.Sig_value (ident, vd, _) -> (
          (* Arrow results only: a mutable argument type is the caller's
             state, not state this interface exposes. *)
          match type_mutable_head ~through_arrows:true mt vd.Types.val_type with
          | Some (c, head) ->
            add ~prefix ~name:(Ident.name ident) ~kindword:"val" head
              (Printf.sprintf "val %s : %s exposes %s" (Ident.name ident)
                 (type_to_string vd.Types.val_type)
                 (mclass_name c))
          | None -> ())
        | Types.Sig_type (ident, decl, _, _) -> (
          let mutable_record =
            match decl.Types.type_kind with
            | Types.Type_record (labels, _) ->
              List.exists
                (fun (l : Types.label_declaration) -> l.Types.ld_mutable = Asttypes.Mutable)
                labels
            | _ -> false
          in
          if mutable_record then
            add ~prefix ~name:(Ident.name ident) ~kindword:"type" "mutable-record"
              (Printf.sprintf "type %s exposes mutable record fields" (Ident.name ident))
          else
            match decl.Types.type_manifest with
            | Some ty -> (
              match type_mutable_head mt ty with
              | Some (c, head) ->
                add ~prefix ~name:(Ident.name ident) ~kindword:"type" head
                  (Printf.sprintf "type %s = %s exposes %s" (Ident.name ident)
                     (type_to_string ty) (mclass_name c))
              | None -> ())
            | None -> ())
        | Types.Sig_module (ident, _, md, _, _) -> walk_mty (Ident.name ident :: prefix) md.Types.md_type
        | _ -> ())
      sg
  and walk_mty prefix (mty : Types.module_type) =
    match mty with
    | Types.Mty_signature sg -> walk prefix sg
    | Types.Mty_functor (_, result) -> walk_mty prefix result
    | _ -> ()
  in
  walk [] sg;
  !findings

(* ------------------------------------------------------------------ *)
(* Unit discovery and scanning *)

type unit_info = {
  u_file : string;
  u_modname : string;
  u_structure : Typedtree.structure option;
  u_signature : Types.signature option;
}

let read_unit path =
  match Cmt_format.read path with
  | exception _ -> None
  | cmi, cmt -> (
    let signature = Option.map (fun (i : Cmi_format.cmi_infos) -> i.Cmi_format.cmi_sign) cmi in
    match cmt with
    | None -> None
    | Some info -> (
      let source =
        match info.Cmt_format.cmt_sourcefile with
        | Some s -> s
        | None -> Filename.basename path
      in
      let u_modname = info.Cmt_format.cmt_modname in
      match info.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
        Some { u_file = source; u_modname; u_structure = Some str; u_signature = None }
      | Cmt_format.Interface _ ->
        Some { u_file = source; u_modname; u_structure = None; u_signature = signature }
      | _ -> None))

let rec find_annot_files acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then find_annot_files acc path
        else if Filename.check_suffix entry ".cmt" || Filename.check_suffix entry ".cmti"
        then path :: acc
        else acc)
      acc entries

let annot_files roots = List.sort compare (List.fold_left find_annot_files [] roots)

let read_units roots =
  let units = List.filter_map read_unit (annot_files roots) in
  (* Dedupe by source file: byte/native builds can both leave annots. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun u ->
      let key = (u.u_file, u.u_structure = None) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    units

let scan ?(mli_exempt = []) ~roots () =
  (* Executables' implementations ([Dune__exe__*]) leave a [.cmt] only
     under [dune build @check]; the inventory covers the libraries. *)
  let units =
    List.filter
      (fun u ->
        u.u_structure = None || not (String.starts_with ~prefix:"Dune__exe" u.u_modname))
      (read_units roots)
  in
  let structures = List.filter_map (fun u -> u.u_structure) units in
  let mt = collect_mutable_types structures in
  let impl_findings =
    List.concat_map
      (fun u ->
        match u.u_structure with
        | Some str when not (List.mem u.u_file mli_exempt) ->
          scan_bindings ~file:u.u_file mt str @ scan_banned ~file:u.u_file str
        | Some str ->
          (* Signature-only exemptions (lint/mli.allow) still get the
             banned-construct scan; only the mutable-binding inventory
             assumes a normal module. *)
          scan_banned ~file:u.u_file str
        | None -> [])
      units
  in
  let sig_findings =
    List.concat_map
      (fun u ->
        match u.u_signature with
        | Some sg when List.mem (Filename.basename u.u_file) read_path_basenames ->
          scan_signature ~file:u.u_file mt sg
        | _ -> [])
      units
  in
  List.sort (fun a b -> compare (a.file, a.line, a.id) (b.file, b.line, b.id))
    (impl_findings @ sig_findings)

(* ------------------------------------------------------------------ *)
(* Allowlist and ratchet gate *)

type discipline =
  | Hazard
  | Thread_confined
  | Guarded
  | Epoch_published
  | Immutable_after_init

let discipline_name = function
  | Hazard -> "hazard"
  | Thread_confined -> "thread-confined"
  | Guarded -> "guarded"
  | Epoch_published -> "epoch-published"
  | Immutable_after_init -> "immutable-after-init"

let disciplines =
  List.map
    (fun d -> (discipline_name d, d))
    [ Hazard; Thread_confined; Guarded; Epoch_published; Immutable_after_init ]

type 'tag entry = { key : string; tag : 'tag; why : string }

type allow_entry = discipline entry

let parse_entry tags line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    match String.index_opt line ' ' with
    | None -> Error (Printf.sprintf "entry %S lacks a tag" line)
    | Some i -> (
      let key = String.sub line 0 i in
      let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      let name, why =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some j ->
          ( String.sub rest 0 j,
            String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      match List.assoc_opt name tags with
      | None ->
        Error
          (Printf.sprintf "entry %S: unknown tag %S (want %s)" key name
             (String.concat " | " (List.map fst tags)))
      | Some tag ->
        if why = "" then Error (Printf.sprintf "entry %S lacks a justification" key)
        else Ok (Some { key; tag; why }))

let load_entries tags path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text ->
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        match parse_entry tags line with
        | Ok None -> go acc (lineno + 1) rest
        | Ok (Some entry) -> go (entry :: acc) (lineno + 1) rest
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
    in
    go [] 1 (String.split_on_char '\n' text)

type ('f, 'tag) verdict = {
  allowed : ('f * 'tag entry) list;
  unallowed : 'f list;
  stale : 'tag entry list;
}

type gate = (finding, discipline) verdict

let ratchet ~id ~allow findings =
  let by_key = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace by_key e.key e) allow;
  let allowed, unallowed =
    List.partition_map
      (fun f ->
        match Hashtbl.find_opt by_key (id f) with
        | Some e ->
          Hashtbl.remove by_key (id f);
          Left (f, e)
        | None -> Right f)
      findings
  in
  let stale = List.filter (fun e -> Hashtbl.mem by_key e.key) allow in
  { allowed; unallowed; stale }

let gate ~allow findings = ratchet ~id:(fun f -> f.id) ~allow findings

let gate_ok ?(fail_stale = true) g =
  g.unallowed = [] && ((not fail_stale) || g.stale = [])

(* ------------------------------------------------------------------ *)
(* Reports *)

let finding_json ?entry f =
  Json.Obj
    ([
       ("id", Json.Str f.id);
       ("file", Json.Str f.file);
       ("line", Json.Int f.line);
       ("kind", Json.Str (kind_name f.kind));
       ("detail", Json.Str f.detail);
       ("intrinsically_guarded", Json.Bool (intrinsically_guarded f.kind));
     ]
    @
    match entry with
    | Some e ->
      [
        ("discipline", Json.Str (discipline_name e.tag));
        ("why", Json.Str e.why);
      ]
    | None -> [ ("discipline", Json.Null) ])

let to_json g =
  Json.Obj
    [
      ("v", Json.Int 1);
      ("tool", Json.Str "dsafe");
      ("ok", Json.Bool (gate_ok g));
      ( "summary",
        Json.Obj
          [
            ("allowed", Json.Int (List.length g.allowed));
            ("unallowed", Json.Int (List.length g.unallowed));
            ("stale", Json.Int (List.length g.stale));
          ] );
      ("unallowed", Json.Arr (List.map (fun f -> finding_json f) g.unallowed));
      ( "stale",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("key", Json.Str e.key);
                   ("discipline", Json.Str (discipline_name e.tag));
                   ("why", Json.Str e.why);
                 ])
             g.stale) );
      ( "allowed",
        Json.Arr (List.map (fun (f, e) -> finding_json ~entry:e f) g.allowed) );
    ]

let short_id f =
  match String.index_opt f.id ':' with
  | Some i -> String.sub f.id (i + 1) (String.length f.id - i - 1)
  | None -> f.id

let pp_table ppf g =
  let row marker f discipline =
    Format.fprintf ppf "  %s %-26s %-38s %-20s %s@." marker (kind_name f.kind)
      (short_id f) discipline
      (Printf.sprintf "%s:%d" f.file f.line)
  in
  let count_by pred = List.length (List.filter pred g.allowed) in
  if g.allowed <> [] then begin
    Format.fprintf ppf "sanctioned mutable sites (%d):@." (List.length g.allowed);
    List.iter
      (fun (f, e) -> row " " f (discipline_name e.tag))
      g.allowed
  end;
  if g.unallowed <> [] then begin
    Format.fprintf ppf "NOT ALLOWLISTED (%d):@." (List.length g.unallowed);
    List.iter (fun f -> row "!" f "-") g.unallowed
  end;
  if g.stale <> [] then begin
    Format.fprintf ppf "STALE allowlist entries (%d):@." (List.length g.stale);
    List.iter (fun e -> Format.fprintf ppf "  ! %s (%s)@." e.key (discipline_name e.tag)) g.stale
  end;
  Format.fprintf ppf
    "dsafe: %d finding(s): %d sanctioned (%d guarded, %d epoch-published, %d thread-confined, \
     %d immutable-after-init, %d hazard), %d unallowed, %d stale@."
    (List.length g.allowed + List.length g.unallowed)
    (List.length g.allowed)
    (count_by (fun (_, e) -> e.tag = Guarded))
    (count_by (fun (_, e) -> e.tag = Epoch_published))
    (count_by (fun (_, e) -> e.tag = Thread_confined))
    (count_by (fun (_, e) -> e.tag = Immutable_after_init))
    (count_by (fun (_, e) -> e.tag = Hazard))
    (List.length g.unallowed) (List.length g.stale)

(* Seed allowlist lines for every current finding: the bootstrap (and
   "how do I sanction this?") path.  Intrinsically guarded sites get the
   guarded tag; everything else starts as a hazard for a human to
   re-tag with the real discipline and justification. *)
let emit_allow ppf findings =
  List.iter
    (fun f ->
      let tag = if intrinsically_guarded f.kind then Guarded else Hazard in
      Format.fprintf ppf "%s %s TODO justify (%s)@." f.id (discipline_name tag)
        (kind_name f.kind))
    findings
