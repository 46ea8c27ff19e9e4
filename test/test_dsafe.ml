(* The dsafe analyzer against its seeded fixture library: every hazard
   class is reported, the ratchet gate passes exactly when the allowlist
   covers the findings, and the dlint executable exits non-zero on a
   fresh unallowed hazard.  Then the dead-export pass against its own
   fixture: a library, a bin/-style executable and a test/-style caller.
   Runs with cwd [_build/default/test], so the fixtures' typedtrees are
   under [fixtures/]. *)

module Dsafe = Expfinder_analysis.Dsafe
module Dead = Expfinder_analysis.Dead

let fixture_root = "fixtures/dsafe_fixture"

let dlint_exe = Filename.concat ".." (Filename.concat "bin" "dlint.exe")

let scan_fixture () = Dsafe.scan ~roots:[ fixture_root ] ()

let find_by_suffix findings suffix =
  List.find_opt
    (fun (f : Dsafe.finding) ->
      let id = f.Dsafe.id in
      let ls = String.length suffix and li = String.length id in
      li >= ls && String.sub id (li - ls) ls = suffix)
    findings

let check_class findings suffix expected =
  match find_by_suffix findings suffix with
  | None -> Alcotest.failf "no finding for %s" suffix
  | Some f -> Alcotest.(check bool) (suffix ^ " class") true (f.Dsafe.kind = expected)

(* --- detection ---------------------------------------------------------- *)

let test_detects_every_class () =
  let findings = scan_fixture () in
  let binding c = Dsafe.Mutable_binding c in
  check_class findings ":counter" (binding Dsafe.Ref_cell);
  check_class findings ":table" (binding Dsafe.Hashtable);
  check_class findings ":buf" (binding Dsafe.Buffer_);
  check_class findings ":cells" (binding Dsafe.Mutable_array);
  check_class findings ":literal" (binding Dsafe.Mutable_array);
  check_class findings ":the_box" (binding Dsafe.Mutable_record);
  check_class findings ":via_fn" (binding (Dsafe.Named_mutable "box"));
  check_class findings ":page" (binding Dsafe.Lazy_block);
  check_class findings ":next" (binding Dsafe.Captured_state);
  check_class findings ":guarded" (binding Dsafe.Atomic_cell);
  check_class findings ":lock" (binding Dsafe.Mutex_lock);
  check_class findings ":banned.Obj.magic" (Dsafe.Banned "Obj.magic");
  check_class findings ":banned.Random.self_init" (Dsafe.Banned "Random.self_init");
  check_class findings ":banned.Marshal.from_string" (Dsafe.Banned "Marshal.from_string")

let test_no_false_positives () =
  let findings = scan_fixture () in
  (* [mk] and the banned-construct wrappers are plain functions: they own
     no module-level storage and must not be inventoried as bindings. *)
  List.iter
    (fun suffix ->
      match find_by_suffix findings suffix with
      | Some f when f.Dsafe.kind <> Dsafe.Banned "Obj.magic" ->
        (match f.Dsafe.kind with
        | Dsafe.Mutable_binding _ -> Alcotest.failf "function %s inventoried" suffix
        | _ -> ())
      | _ -> ())
    [ ":mk"; ":casted"; ":seeded"; ":unmarshal" ]

(* Read through the JSON report, which flags every finding. *)
let test_intrinsically_guarded () =
  let findings = scan_fixture () in
  let module Json = Expfinder_telemetry.Json in
  let report = Dsafe.to_json (Dsafe.gate ~allow:[] findings) in
  let guarded_of suffix =
    match find_by_suffix findings suffix, Json.member "unallowed" report with
    | Some f, Some (Json.Arr rows) -> (
      match
        List.find_opt (fun row -> Json.member "id" row = Some (Json.Str f.Dsafe.id)) rows
        |> Fun.flip Option.bind (Json.member "intrinsically_guarded")
      with
      | Some (Json.Bool b) -> b
      | _ -> Alcotest.failf "no intrinsically_guarded flag for %s" suffix)
    | _ -> Alcotest.failf "no finding for %s" suffix
  in
  Alcotest.(check bool) "atomic guarded" true (guarded_of ":guarded");
  Alcotest.(check bool) "mutex guarded" true (guarded_of ":lock");
  Alcotest.(check bool) "ref not guarded" false (guarded_of ":counter")

(* --- ratchet gate ------------------------------------------------------- *)

let full_allow findings =
  List.map
    (fun (f : Dsafe.finding) ->
      { Dsafe.key = f.Dsafe.id; tag = Dsafe.Hazard; why = "fixture" })
    findings

let test_gate_passes_when_allowlisted () =
  let findings = scan_fixture () in
  let g = Dsafe.gate ~allow:(full_allow findings) findings in
  Alcotest.(check bool) "gate ok" true (Dsafe.gate_ok g);
  Alcotest.(check int) "all allowed" (List.length findings) (List.length g.Dsafe.allowed);
  Alcotest.(check int) "none unallowed" 0 (List.length g.Dsafe.unallowed)

let test_gate_fails_on_fresh_hazard () =
  let findings = scan_fixture () in
  (* Dropping one entry simulates a fresh unallowlisted hazard. *)
  let incomplete =
    List.filter
      (fun (e : Dsafe.allow_entry) ->
        not (Filename.check_suffix e.Dsafe.key ":counter"))
      (full_allow findings)
  in
  let g = Dsafe.gate ~allow:incomplete findings in
  Alcotest.(check bool) "gate fails" false (Dsafe.gate_ok g);
  Alcotest.(check int) "one unallowed" 1 (List.length g.Dsafe.unallowed)

let test_gate_fails_on_stale_entry () =
  let findings = scan_fixture () in
  let stale_entry =
    { Dsafe.key = "fixtures/gone.ml:Removed.site"; tag = Dsafe.Guarded; why = "gone" }
  in
  let g = Dsafe.gate ~allow:(stale_entry :: full_allow findings) findings in
  Alcotest.(check bool) "gate fails on stale" false (Dsafe.gate_ok g);
  Alcotest.(check int) "one stale" 1 (List.length g.Dsafe.stale);
  Alcotest.(check bool)
    "tolerated with ~fail_stale:false" true
    (Dsafe.gate_ok ~fail_stale:false g)

(* --- allow-file syntax --------------------------------------------------- *)

(* Allow-file lines, read through [load_entries] on a temporary file. *)
let parse_allow_line line =
  let path = Filename.temp_file "dsafe_test" ".allow" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc line);
      match Dsafe.load_entries Dsafe.disciplines path with
      | Ok [] -> Ok None
      | Ok [ e ] -> Ok (Some e)
      | Ok _ -> Alcotest.fail "one line gave several entries"
      | Error e -> Error e)

let test_parse_allow_line () =
  (match parse_allow_line "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment should parse to None");
  (match parse_allow_line "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank should parse to None");
  (match parse_allow_line "a.ml:x guarded behind a mutex" with
  | Ok (Some e) ->
    Alcotest.(check string) "key" "a.ml:x" e.Dsafe.key;
    Alcotest.(check bool) "tag" true (e.Dsafe.tag = Dsafe.Guarded);
    Alcotest.(check string) "why" "behind a mutex" e.Dsafe.why
  | _ -> Alcotest.fail "valid entry should parse");
  (match parse_allow_line "a.ml:x nonsense why" with
  | Error _ -> ()
  | _ -> Alcotest.fail "unknown discipline must be rejected");
  (match parse_allow_line "a.ml:x guarded" with
  | Error _ -> ()
  | _ -> Alcotest.fail "missing justification must be rejected");
  match parse_allow_line "a.ml:x" with
  | Error _ -> ()
  | _ -> Alcotest.fail "missing tag must be rejected"

(* --- the dlint executable end-to-end ------------------------------------ *)

let run argv =
  let cmd = String.concat " " (List.map Filename.quote argv) in
  Sys.command (cmd ^ " >/dev/null 2>&1")

let with_temp_file f =
  let path = Filename.temp_file "dsafe_test" ".allow" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_dlint_exit_codes () =
  with_temp_file (fun allow ->
      (* Bootstrap a complete allowlist with --emit-allow... *)
      let rc =
        Sys.command
          (Printf.sprintf "%s --emit-allow %s > %s 2>/dev/null"
             (Filename.quote dlint_exe) (Filename.quote fixture_root) (Filename.quote allow))
      in
      Alcotest.(check int) "emit-allow exits 0" 0 rc;
      (* ...which must make the gate pass... *)
      let rc = run [ dlint_exe; "--allow"; allow; fixture_root ] in
      Alcotest.(check int) "complete allowlist passes" 0 rc;
      (* ...and dropping one entry (a fresh hazard) must fail it. *)
      let lines =
        let ic = open_in allow in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | exception End_of_file -> List.rev acc
              | l -> go (l :: acc)
            in
            go [])
      in
      Alcotest.(check bool) "fixture has findings" true (List.length lines > 5);
      let oc = open_out allow in
      List.iteri (fun i l -> if i > 0 then output_string oc (l ^ "\n")) lines;
      close_out oc;
      let rc = run [ dlint_exe; "--allow"; allow; fixture_root ] in
      Alcotest.(check int) "missing entry fails" 1 rc)

let test_dlint_stale_entry_fails () =
  with_temp_file (fun allow ->
      let rc =
        Sys.command
          (Printf.sprintf "%s --emit-allow %s > %s 2>/dev/null"
             (Filename.quote dlint_exe) (Filename.quote fixture_root) (Filename.quote allow))
      in
      Alcotest.(check int) "emit-allow exits 0" 0 rc;
      let oc = open_out_gen [ Open_append ] 0o644 allow in
      output_string oc "fixtures/gone.ml:Removed.site guarded site no longer exists\n";
      close_out oc;
      let rc = run [ dlint_exe; "--allow"; allow; fixture_root ] in
      Alcotest.(check int) "stale entry fails" 1 rc;
      let rc = run [ dlint_exe; "--allow"; allow; "--no-fail-stale"; fixture_root ] in
      Alcotest.(check int) "--no-fail-stale tolerates it" 0 rc)

let test_dlint_json_report () =
  with_temp_file (fun allow ->
      with_temp_file (fun json ->
          let rc =
            Sys.command
              (Printf.sprintf "%s --emit-allow %s > %s 2>/dev/null"
                 (Filename.quote dlint_exe) (Filename.quote fixture_root)
                 (Filename.quote allow))
          in
          Alcotest.(check int) "emit-allow exits 0" 0 rc;
          let rc = run [ dlint_exe; "--allow"; allow; "--json"; json; fixture_root ] in
          Alcotest.(check int) "gate passes" 0 rc;
          let ic = open_in_bin json in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Expfinder_telemetry.Json.of_string text with
          | Error e -> Alcotest.failf "report is not valid JSON: %s" e
          | Ok doc ->
            let module Json = Expfinder_telemetry.Json in
            (match Json.member "ok" doc with
            | Some (Json.Bool true) -> ()
            | _ -> Alcotest.fail "report lacks ok=true");
            (match Option.bind (Json.member "summary" doc) (Json.member "unallowed") with
            | Some (Json.Int 0) -> ()
            | _ -> Alcotest.fail "summary.unallowed should be 0")))

(* --- the dead-export pass -------------------------------------------- *)

let dead_lib = "fixtures/dead_fixture/lib"

let dead_bin = "fixtures/dead_fixture/bin"

let dead_test = "fixtures/dead_fixture/test"

let dead_names roots =
  List.map
    (fun (e : Dead.export) ->
      match String.index_opt e.Dead.id ':' with
      | Some i -> String.sub e.Dead.id (i + 1) (String.length e.Dead.id - i - 1)
      | None -> e.Dead.id)
    (Dead.scan ~roots)
  |> List.sort compare

let test_dead_reported () =
  Alcotest.(check (list string))
    "unused, used only in its own unit, used only by a test"
    [ "Inner.nested_unused"; "self_only"; "unused"; "via_test" ]
    (dead_names [ dead_lib; dead_bin ])

let test_dead_roots_decide () =
  (* The test/-style caller's reference counts once its root is scanned:
     the pass leaves it out by root, not by accident. *)
  Alcotest.(check (list string))
    "a scanned test root makes via_test live"
    [ "Inner.nested_unused"; "self_only"; "unused" ]
    (dead_names [ dead_lib; dead_bin; dead_test ]);
  (* Without the executable's root, its callee is dead again. *)
  Alcotest.(check bool) "via_bin needs the bin root" true
    (List.mem "via_bin" (dead_names [ dead_lib ]))

let test_dead_ids () =
  match List.find_opt (fun (e : Dead.export) -> Filename.check_suffix e.Dead.id ":unused") (Dead.scan ~roots:[ dead_lib ]) with
  | None -> Alcotest.fail "no finding for unused"
  | Some e ->
    Alcotest.(check bool) "keyed by the interface" true
      (Filename.check_suffix e.Dead.file "fixtures/dead_fixture/lib/exports.mli");
    Alcotest.(check int) "at its declaration" 3 e.Dead.line

let test_dead_gate () =
  let exports = Dead.scan ~roots:[ dead_lib; dead_bin ] in
  let allow =
    List.map (fun (e : Dead.export) -> { Dsafe.key = e.Dead.id; tag = Dead.Test_seam; why = "fixture" }) exports
  in
  Alcotest.(check bool) "complete allowlist passes" true (Dsafe.gate_ok (Dead.gate ~allow exports));
  Alcotest.(check bool) "a missing entry fails" false
    (Dsafe.gate_ok (Dead.gate ~allow:(List.tl allow) exports));
  let stale = { Dsafe.key = "gone.mli:removed"; tag = Dead.Readme; why = "gone" } in
  let g = Dead.gate ~allow:(stale :: allow) exports in
  Alcotest.(check int) "one stale entry" 1 (List.length g.Dsafe.stale);
  Alcotest.(check bool) "a stale entry fails" false (Dsafe.gate_ok g)

let test_dlint_dead () =
  with_temp_file (fun allow ->
      let roots = [ dead_lib; dead_bin ] in
      let rc =
        Sys.command
          (Printf.sprintf "%s --dead --emit-allow %s > %s 2>/dev/null" (Filename.quote dlint_exe)
             (String.concat " " (List.map Filename.quote roots))
             (Filename.quote allow))
      in
      Alcotest.(check int) "emit-allow exits 0" 0 rc;
      Alcotest.(check int) "complete allowlist passes" 0
        (run ([ dlint_exe; "--dead"; "--allow"; allow ] @ roots));
      Alcotest.(check int) "without the allowlist the findings fail" 1
        (run ([ dlint_exe; "--dead"; "--allow"; "/dev/null" ] @ roots));
      let oc = open_out_gen [ Open_append ] 0o644 allow in
      output_string oc "fixtures/gone.mli:removed readme the export is gone\n";
      close_out oc;
      Alcotest.(check int) "a stale entry fails" 1
        (run ([ dlint_exe; "--dead"; "--allow"; allow ] @ roots));
      (* A root that exists but holds no .cmt (an executable built
         without [@check]) would hide its references: refused. *)
      let bare = Filename.temp_file "dead_root" "" in
      Sys.remove bare;
      Sys.mkdir bare 0o755;
      Fun.protect
        ~finally:(fun () -> Sys.rmdir bare)
        (fun () ->
          Alcotest.(check int) "a root without .cmt files is refused" 2
            (run [ dlint_exe; "--dead"; "--allow"; allow; dead_lib; bare ])))

let () =
  Alcotest.run "dsafe"
    [
      ( "scan",
        [
          Alcotest.test_case "detects every hazard class" `Quick test_detects_every_class;
          Alcotest.test_case "functions are not inventoried" `Quick test_no_false_positives;
          Alcotest.test_case "atomic/mutex intrinsically guarded" `Quick
            test_intrinsically_guarded;
        ] );
      ( "gate",
        [
          Alcotest.test_case "passes when fully allowlisted" `Quick
            test_gate_passes_when_allowlisted;
          Alcotest.test_case "fails on a fresh hazard" `Quick test_gate_fails_on_fresh_hazard;
          Alcotest.test_case "fails on a stale entry" `Quick test_gate_fails_on_stale_entry;
          Alcotest.test_case "allow-file syntax" `Quick test_parse_allow_line;
        ] );
      ( "dlint",
        [
          Alcotest.test_case "exit codes" `Quick test_dlint_exit_codes;
          Alcotest.test_case "stale entries" `Quick test_dlint_stale_entry_fails;
          Alcotest.test_case "json report" `Quick test_dlint_json_report;
        ] );
      ( "dead",
        [
          Alcotest.test_case "unreferenced exports reported" `Quick test_dead_reported;
          Alcotest.test_case "roots decide what counts" `Quick test_dead_roots_decide;
          Alcotest.test_case "ids name the interface" `Quick test_dead_ids;
          Alcotest.test_case "gate and stale entries" `Quick test_dead_gate;
          Alcotest.test_case "dlint --dead exit codes" `Quick test_dlint_dead;
        ] );
    ]
