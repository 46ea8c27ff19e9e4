(* Dead: exported values that nothing outside their own compilation
   unit references.

   Exports are the [val]s of every library interface ([.cmti]), nested
   module signatures included.  References are the [Texp_ident]s of
   every implementation ([.cmt]) under the scanned roots.  Both sides
   carry the declaration's [Shape.Uid]: a value reached through another
   unit is typed against that unit's interface, so its uid is the
   interface's, whatever path spelled it (dune's wrapped alias
   [Expfinder_graph.Traversal], a local [module T = ...], an [open]).
   Matching uids therefore follows every alias without resolving paths.
   A reference from the value's own unit carries the implementation's
   uid instead and does not count. *)

type export = { id : string; file : string; line : int }

type reason = Cli | Readme | Experiment | Test_seam

let reasons =
  [ ("cli", Cli); ("readme", Readme); ("experiment", Experiment); ("test-seam", Test_seam) ]

let reason_name r = fst (List.find (fun (_, r') -> r' = r) reasons)

(* Executables get an empty generated interface, [Dune__exe__Main];
   only library interfaces export anything. *)
let is_library_unit (u : Dsafe.unit_info) =
  not (String.starts_with ~prefix:"Dune__exe" u.Dsafe.u_modname)

let exports units =
  List.concat_map
    (fun (u : Dsafe.unit_info) ->
      let rec walk prefix (sg : Types.signature) =
        List.concat_map
          (function
            | Types.Sig_value (ident, vd, _) ->
              let qual = String.concat "." (List.rev (Ident.name ident :: prefix)) in
              [
                ( vd.Types.val_uid,
                  {
                    id = u.Dsafe.u_file ^ ":" ^ qual;
                    file = u.Dsafe.u_file;
                    line = vd.Types.val_loc.Location.loc_start.Lexing.pos_lnum;
                  } );
              ]
            | Types.Sig_module (ident, _, { Types.md_type = Types.Mty_signature sg; _ }, _, _)
              ->
              walk (Ident.name ident :: prefix) sg
            | _ -> [])
          sg
      in
      match u.Dsafe.u_signature with
      | Some sg when is_library_unit u -> walk [] sg
      | _ -> [])
    units

let references units =
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (u : Dsafe.unit_info) ->
      let super = Tast_iterator.default_iterator in
      let expr sub (e : Typedtree.expression) =
        (match e.Typedtree.exp_desc with
        | Typedtree.Texp_ident (_, _, vd) -> (
          match vd.Types.val_uid with
          | Shape.Uid.Item { comp_unit; _ } when comp_unit <> u.Dsafe.u_modname ->
            Hashtbl.replace seen vd.Types.val_uid ()
          | _ -> ())
        | _ -> ());
        super.Tast_iterator.expr sub e
      in
      let iter = { super with Tast_iterator.expr } in
      Option.iter (iter.Tast_iterator.structure iter) u.Dsafe.u_structure)
    units;
  seen

let scan ~roots =
  let units = Dsafe.read_units roots in
  let used = references units in
  exports units
  |> List.filter_map (fun (uid, e) -> if Hashtbl.mem used uid then None else Some e)
  |> List.sort (fun a b -> compare (a.file, a.line, a.id) (b.file, b.line, b.id))

let has_implementations root =
  List.exists (fun path -> Filename.check_suffix path ".cmt") (Dsafe.annot_files [ root ])

let gate ~allow exports = Dsafe.ratchet ~id:(fun e -> e.id) ~allow exports

let pp_table ppf (g : (export, reason) Dsafe.verdict) =
  let row marker e tag = Format.fprintf ppf "  %s %-60s %s@." marker e.id tag in
  if g.Dsafe.allowed <> [] then begin
    Format.fprintf ppf "allowlisted exports (%d):@." (List.length g.Dsafe.allowed);
    List.iter (fun (e, a) -> row " " e (reason_name a.Dsafe.tag)) g.Dsafe.allowed
  end;
  if g.Dsafe.unallowed <> [] then begin
    Format.fprintf ppf "UNREFERENCED (%d):@." (List.length g.Dsafe.unallowed);
    List.iter (fun e -> row "!" e (Printf.sprintf "line %d" e.line)) g.Dsafe.unallowed
  end;
  if g.Dsafe.stale <> [] then begin
    Format.fprintf ppf "STALE allowlist entries (%d):@." (List.length g.Dsafe.stale);
    List.iter (fun (a : reason Dsafe.entry) -> Format.fprintf ppf "  ! %s@." a.Dsafe.key) g.Dsafe.stale
  end;
  Format.fprintf ppf "dead: %d unreferenced export(s): %d allowlisted, %d unallowed, %d stale@."
    (List.length g.Dsafe.allowed + List.length g.Dsafe.unallowed)
    (List.length g.Dsafe.allowed) (List.length g.Dsafe.unallowed) (List.length g.Dsafe.stale)
