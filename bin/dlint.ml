(* dlint: the Dsafe domain-safety gate and the Dead dead-export gate
   as a command-line tool.

   Scans the .cmt/.cmti trees under the given roots (default: the dune
   byte-code annots for lib/ and bin/; with --dead, lib/, bin/, bench/,
   perfbench/ and examples/ as `make lint-dead` builds them) and checks
   every finding against the checked-in allowlist.  Exit 0 iff the
   ratchet holds: no finding missing from the allowlist, no stale
   allowlist entry.

     dlint [--dead] [--allow FILE] [--mli-allow FILE] [--json FILE]
           [--emit-allow] [--no-fail-stale] [ROOT...]

   Kept free of module-level mutable state on purpose — this binary is
   in its own scan scope. *)

module Dsafe = Expfinder_analysis.Dsafe
module Dead = Expfinder_analysis.Dead

let usage () =
  prerr_endline
    "usage: dlint [--dead] [--allow FILE] [--mli-allow FILE] [--json FILE]\n\
    \             [--emit-allow] [--no-fail-stale] [ROOT...]\n\n\
     Scans _build .cmt/.cmti trees for module-level mutable state, banned\n\
     constructs and read-path signature leaks, then gates the findings\n\
     against the allowlist (default lint/dsafe.allow).\n\n\
    \  --dead            report library exports that nothing outside their own\n\
    \                    unit references, gated by lint/dead.allow (needs the\n\
    \                    executables' .cmt files: run `make lint-dead`)\n\
    \  --allow FILE      allowlist to gate against (default lint/dsafe.allow)\n\
    \  --mli-allow FILE  shared lint-mli exemption list; listed sources skip\n\
    \                    the mutable-binding inventory (signature-only files)\n\
    \  --json FILE       also write the full dsafe report as JSON\n\
    \  --emit-allow      print seed allowlist lines for all findings and exit\n\
    \  --no-fail-stale   tolerate allowlist entries with no matching finding"

let default_roots = [ "_build/default/lib"; "_build/default/bin" ]

(* What `make lint-dead` scans after [dune build @check], which writes
   the executables' .cmt files. *)
let dead_roots =
  List.map (Filename.concat "_build/default") [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* lint/mli.allow lines are "<path> <justification...>"; only the path
   matters here. *)
let load_mli_allow path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line -> (
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go acc
            else
              match String.index_opt line ' ' with
              | Some i -> go (String.sub line 0 i :: acc)
              | None -> go (line :: acc))
        in
        go [])

let read_allow tags path =
  match Dsafe.load_entries tags path with
  | Ok entries -> entries
  | Error e ->
    Printf.eprintf "dlint: cannot read allowlist %s: %s\n" path e;
    exit 2

let verdict ~fail_stale ~allow_path g =
  if Dsafe.gate_ok ~fail_stale g then exit 0
  else begin
    if g.Dsafe.unallowed <> [] then
      Printf.eprintf
        "dlint: unallowed findings — either remove them or add a justified entry to %s \
         (seed one with --emit-allow)\n"
        allow_path;
    if fail_stale && g.Dsafe.stale <> [] then
      prerr_endline
        "dlint: stale allowlist entries — the sites are gone; delete the entries so the \
         ratchet tightens";
    exit 1
  end

(* --dead: every root must hold implementations, or the references it
   makes would be missing and its callees reported dead. *)
let dead ~allow_path ~emit ~fail_stale roots =
  (match List.filter (fun r -> not (Dead.has_implementations r)) roots with
  | [] -> ()
  | bare ->
    Printf.eprintf "dlint: no .cmt files under %s (build with `dune build @check`)\n"
      (String.concat ", " bare);
    exit 2);
  let exports = Dead.scan ~roots in
  if emit then begin
    List.iter (fun (e : Dead.export) -> Printf.printf "%s test-seam TODO justify\n" e.Dead.id) exports;
    exit 0
  end;
  let g = Dead.gate ~allow:(read_allow Dead.reasons allow_path) exports in
  Dead.pp_table Format.std_formatter g;
  Format.pp_print_flush Format.std_formatter ();
  verdict ~fail_stale ~allow_path g

let main () =
  let rec parse (dead, allow, mli_allow, json, emit, fail_stale, roots) = function
    | [] -> (dead, allow, mli_allow, json, emit, fail_stale, List.rev roots)
    | "--dead" :: rest -> parse (true, allow, mli_allow, json, emit, fail_stale, roots) rest
    | "--allow" :: v :: rest -> parse (dead, Some v, mli_allow, json, emit, fail_stale, roots) rest
    | "--mli-allow" :: v :: rest -> parse (dead, allow, v, json, emit, fail_stale, roots) rest
    | "--json" :: v :: rest -> parse (dead, allow, mli_allow, Some v, emit, fail_stale, roots) rest
    | "--emit-allow" :: rest -> parse (dead, allow, mli_allow, json, true, fail_stale, roots) rest
    | "--no-fail-stale" :: rest -> parse (dead, allow, mli_allow, json, emit, false, roots) rest
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "dlint: unknown option %s\n" arg;
      usage ();
      exit 2
    | root :: rest -> parse (dead, allow, mli_allow, json, emit, fail_stale, root :: roots) rest
  in
  let dead_mode, allow, mli_allow_path, json_path, emit, fail_stale, roots =
    parse (false, None, "lint/mli.allow", None, false, true, [])
      (List.tl (Array.to_list Sys.argv))
  in
  let roots =
    match roots with
    | [] when dead_mode -> dead_roots
    | [] -> default_roots
    | roots -> roots
  in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if missing <> [] then begin
    Printf.eprintf "dlint: no such root(s): %s (run `dune build` first?)\n"
      (String.concat ", " missing);
    exit 2
  end;
  if dead_mode then
    dead ~allow_path:(Option.value allow ~default:"lint/dead.allow") ~emit ~fail_stale roots;
  let allow_path = Option.value allow ~default:"lint/dsafe.allow" in
  let mli_exempt = load_mli_allow mli_allow_path in
  let findings = Dsafe.scan ~mli_exempt ~roots () in
  if emit then begin
    Dsafe.emit_allow Format.std_formatter findings;
    exit 0
  end;
  let gate = Dsafe.gate ~allow:(read_allow Dsafe.disciplines allow_path) findings in
  Dsafe.pp_table Format.std_formatter gate;
  (match json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Expfinder_telemetry.Json.to_string ~pretty:true (Dsafe.to_json gate))));
  verdict ~fail_stale ~allow_path gate

let () = main ()
