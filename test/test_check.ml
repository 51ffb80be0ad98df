(* Tests for the routing_check static analyzer: the shipped scenarios
   and the built-in parameter table are clean, every test/fixtures/bad
   fixture trips exactly its diagnostic code, and the P0xx lint accepts
   precisely the paper-consistent tables (qcheck). *)

module Diagnostic = Routing_check.Diagnostic
module Checker = Routing_check.Checker
module Params_check = Routing_check.Params_check
module Stability_check = Routing_check.Stability_check
module Scenario_check = Routing_check.Scenario_check
module Src_check = Routing_check.Src_check
module Alloc_check = Routing_check.Alloc_check
module Domains_check = Routing_check.Domains_check
module Obs_json = Routing_obs.Json
module Generator_check = Routing_check.Generator_check
module Generators = Routing_topology.Generators
module Hnm_params = Routing_metric.Hnm_params
module Line_type = Routing_topology.Line_type

(* Tests run from _build/default/test; shipped scenarios are declared as
   deps one level up, fixtures live beside us. *)
let scenario name = Filename.concat ".." (Filename.concat "scenarios" name)

let fixture name = Filename.concat "fixtures/bad" name

let codes diags = List.map (fun d -> d.Diagnostic.code) diags

let has_code code diags =
  List.exists (fun d -> String.equal d.Diagnostic.code code) diags

let check_has_code ~what code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s raises %s (got: %s)" what code
       (String.concat " " (codes diags)))
    true (has_code code diags)

(* --- The shipped artifacts are clean (the CLI's exit-0 guarantee) --- *)

let test_shipped_scenarios_clean () =
  List.iter
    (fun name ->
      let diags = Checker.check_scenario_file (scenario name) in
      Alcotest.(check int)
        (Printf.sprintf "%s exits 0 (got: %s)" name
           (String.concat " " (codes diags)))
        0
        (Diagnostic.exit_code diags))
    [ "arpanet_peak.scn"; "milnet_peak.scn"; "two_region.scn";
      "outage_demo.scn" ]

let test_default_table_clean () =
  Alcotest.(check (list string))
    "Hnm_params.all passes its own lint" []
    (codes (Checker.check_default_table ()))

(* The real lib/ scan runs in CI (arpanet_check --src lib); here the
   closure computation and its L003 scoping are exercised on a
   synthetic source tree, which the test can fully control. *)
let test_spf_closure_scoping () =
  let root = Filename.temp_file "srctree" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let write_dir dir files =
    let d = Filename.concat root dir in
    Sys.mkdir d 0o755;
    List.iter
      (fun (name, text) ->
        Out_channel.with_open_text (Filename.concat d name) (fun oc ->
            output_string oc text))
      files
  in
  let state = "let cache = Hashtbl.create 16\n" in
  write_dir "spf"
    [ ("dune", "(library (name routing_spf) (libraries routing_core))\n") ];
  write_dir "core"
    [ ("dune", "(library (name routing_core))\n"); ("state.ml", state) ];
  write_dir "other"
    [ ("dune", "(library (name routing_other) (libraries routing_core))\n");
      ("state.ml", state) ]
  ;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () ->
      Alcotest.(check (list string))
        "closure follows dune libraries, not siblings" [ "core"; "spf" ]
        (Src_check.spf_reachable ~root);
      let diags = Src_check.check_tree ~root in
      Alcotest.(check (list string)) "only the closure copy trips L003"
        [ "L003" ] (codes diags);
      match (List.hd diags).Diagnostic.location with
      | Some { Diagnostic.file; _ } ->
        Alcotest.(check bool) "in core/, not other/" true
          (Astring.String.is_infix ~affix:"core" file)
      | None -> Alcotest.fail "L003 should carry a location")

(* --- Each bad fixture triggers its specific code --- *)

let scenario_fixtures =
  [ ("empty.scn", "T001", 2);
    ("disconnected.scn", "T002", 2);
    ("unknown_node.scn", "S002", 2);
    ("no_trunk.scn", "S003", 2);
    ("syntax.scn", "S001", 2);
    ("double_down.scn", "S014", 1) ]

let test_scenario_fixtures () =
  List.iter
    (fun (name, code, exit_code) ->
      let diags = Checker.check_scenario_file (fixture name) in
      check_has_code ~what:name code diags;
      Alcotest.(check int)
        (Printf.sprintf "%s exit code" name)
        exit_code
        (Diagnostic.exit_code diags))
    scenario_fixtures

let params_fixtures =
  [ ("params_max_cost.json", "P001", 2);
    ("params_knee.json", "P002", 2);
    ("params_max_up.json", "P003", 2);
    ("params_max_down.json", "P004", 2);
    ("params_min_change.json", "P005", 2);
    ("params_slope.json", "P006", 2);
    ("params_bounds.json", "P007", 2);
    ("params_inversion.json", "P008", 1);
    ("params_duplicate.json", "P009", 2) ]

let test_params_fixtures () =
  List.iter
    (fun (name, code, exit_code) ->
      let diags, file = Checker.check_params_file (fixture name) in
      check_has_code ~what:name code diags;
      Alcotest.(check int)
        (Printf.sprintf "%s exit code" name)
        exit_code
        (Diagnostic.exit_code diags);
      Alcotest.(check bool)
        (Printf.sprintf "%s still decodes" name)
        true (Option.is_some file))
    params_fixtures

(* Several fixtures isolate their code: the rest of the entry is
   paper-consistent, so nothing else may fire. *)
let test_params_fixtures_isolated () =
  List.iter
    (fun (name, code) ->
      let diags, _ = Checker.check_params_file (fixture name) in
      Alcotest.(check (list string)) name [ code ] (codes diags))
    [ ("params_max_cost.json", "P001");
      ("params_max_up.json", "P003");
      ("params_max_down.json", "P004");
      ("params_min_change.json", "P005");
      ("params_bounds.json", "P007");
      ("params_inversion.json", "P008") ]

(* Switching the 0.5/0.5 averaging filter off turns the demo scenarios'
   benign R004 observation into the real R001 oscillation warning. *)
let test_ablation_triggers_r001 () =
  let diags, file =
    Checker.check_params_file (fixture "params_no_averaging.json")
  in
  Alcotest.(check (list string)) "ablation file lints clean" [] (codes diags);
  let options = { Checker.stability = true; params = file } in
  let diags =
    Checker.check_scenario_file ~options (scenario "two_region.scn")
  in
  check_has_code ~what:"two_region + averaging off" "R001" diags;
  (* ... and the full pipeline reports the same fixed point as R004. *)
  let full = Checker.check_scenario_file (scenario "two_region.scn") in
  check_has_code ~what:"two_region full pipeline" "R004" full;
  Alcotest.(check bool) "no R001 under the full pipeline" false
    (has_code "R001" full)

let src_fixtures =
  [ ("src/self_seed.ml", "L001", 1);
    ("src/wall_clock.ml", "L002", 2);
    ("src/global_state.ml", "L003", 2);
    ("src/function_state.ml", "L003", 0) ]

let test_src_fixtures () =
  List.iter
    (fun (name, code, count) ->
      let diags = Src_check.scan_file ~in_spf_closure:true (fixture name) in
      Alcotest.(check (list string))
        name
        (List.init count (fun _ -> code))
        (codes diags))
    src_fixtures

let test_src_lint_scoping () =
  (* L003 only applies inside the SPF dependency closure... *)
  Alcotest.(check (list string))
    "global state outside the closure is fine" []
    (codes
       (Src_check.scan_file ~in_spf_closure:false
          (fixture "src/global_state.ml")));
  (* ... and banned names inside comments or strings never count. *)
  let doc = Filename.temp_file "lint" ".ml" in
  Out_channel.with_open_text doc (fun oc ->
      output_string oc
        "(* Random.self_init is banned; so is Unix.gettimeofday *)\n\
         let banned = \"Random.self_init\"\n\
         let clock = \"Unix.gettimeofday\"\n");
  let diags = Src_check.scan_file ~in_spf_closure:true doc in
  Sys.remove doc;
  Alcotest.(check (list string)) "mentions are not uses" [] (codes diags)

(* Mentions are not uses because the lint reads the parse tree: nested
   comments, strings containing "*)", '"' char literals (inside comments
   too) and {id|…|id} quoted strings all stay opaque, and the code after
   them is still scanned. *)
let test_src_comment_tricks () =
  let diags =
    Src_check.scan_file ~in_spf_closure:true (fixture "src/comment_tricks.ml")
  in
  Alcotest.(check (list string))
    "only the real use fires" [ "L001" ] (codes diags);
  match (List.hd diags).Diagnostic.location with
  | Some { Diagnostic.line = Some 14; _ } -> ()
  | _ -> Alcotest.fail "L001 should point at comment_tricks.ml line 14"

(* A file the parser rejects gets one L000 at the parser's location and
   no rule reads the rest of it.  The fixture is not named .ml, so a
   tree scan of test/ does not pick it up. *)
let test_src_parse_failure () =
  let diags =
    Src_check.scan_file ~in_spf_closure:true (fixture "src/syntax_error.txt")
  in
  Alcotest.(check (list string)) "one L000, nothing else" [ "L000" ]
    (codes diags);
  match (List.hd diags).Diagnostic.location with
  | Some { Diagnostic.line = Some 6; _ } -> ()
  | _ -> Alcotest.fail "L000 should point at syntax_error.txt line 6"

(* --- The compiled-artifact passes (A0xx / D0xx) --- *)

(* The fixture dune rules declare the .cmt / .cmx.dump artifacts as rule
   targets, so unlike the library tree they reliably exist beside us. *)

let test_alloc_fixtures () =
  let diags = Alloc_check.check ~roots:[ "fixtures/alloc" ] in
  Alcotest.(check (list string))
    "one A001 from alloc_bad, the A004 summary, nothing else"
    [ "A001"; "A004" ]
    (List.sort compare (codes diags));
  Alcotest.(check int) "allocation in a hot path is an error" 2
    (Diagnostic.exit_code diags);
  let a001 = List.find (fun d -> d.Diagnostic.code = "A001") diags in
  match a001.Diagnostic.location with
  | Some { Diagnostic.file = "alloc_bad.ml"; line = Some 3 } -> ()
  | _ -> Alcotest.fail "A001 should carry the compiler's alloc_bad.ml:3"

let test_domains_fixtures () =
  let diags = Domains_check.check ~roots:[ "fixtures/domains" ] in
  Alcotest.(check (list string))
    "one D001 from domains_bad, nothing from domains_good" [ "D001" ]
    (codes diags);
  let d001 = List.hd diags in
  match d001.Diagnostic.location with
  | Some { Diagnostic.file; line = Some 16 } ->
    Alcotest.(check string) "flagged in the bad fixture" "domains_bad.ml"
      (Filename.basename file)
  | _ -> Alcotest.fail "D001 should point at the captured-ref write"

(* --- Diagnostic merge: dedup, ordering, JSON schema --- *)

let diag_pool =
  [ Diagnostic.error ~file:"b.scn" ~line:4 ~code:"S002" "unknown node";
    Diagnostic.warning ~file:"a.scn" ~line:9 ~code:"T002" "disconnected";
    Diagnostic.error ~file:"a.scn" ~line:9 ~code:"T002" "unreachable core";
    Diagnostic.info ~code:"A004" "alloc summary";
    Diagnostic.error ~file:"b.scn" ~line:4 ~code:"S002" "unknown node";
    Diagnostic.warning ~file:"a.scn" ~line:2 ~code:"L001" "self seed" ]

let test_merge_dedup () =
  let merged = Diagnostic.merge diag_pool in
  (* Same code at the same site: the exact duplicate collapses, and the
     warning/error pair keeps only the error. *)
  Alcotest.(check (list string))
    "deduplicated and in report order"
    [ "A004"; "L001"; "T002"; "S002" ]
    (codes merged);
  let t002 = List.find (fun d -> d.Diagnostic.code = "T002") merged in
  Alcotest.(check string) "kept the max-severity message" "unreachable core"
    t002.Diagnostic.message

let report_string diags =
  Format.asprintf "%a" Diagnostic.pp_report (Diagnostic.merge diags)

let test_report_order_independent () =
  Alcotest.(check string) "byte-identical report either way"
    (report_string diag_pool)
    (report_string (List.rev diag_pool))

let prop_merge_order_independent =
  QCheck2.Test.make
    ~name:"merge is a pure function of the diagnostic set" ~count:200
    (QCheck2.Gen.shuffle_l diag_pool)
    (fun shuffled -> Diagnostic.merge shuffled = Diagnostic.merge diag_pool)

let json_field name json =
  match Obs_json.member name json with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let json_int name json =
  match Obs_json.to_int (json_field name json) with
  | Ok i -> i
  | Error e -> Alcotest.fail e

let test_json_schema () =
  let json = Diagnostic.report_to_json (Diagnostic.merge diag_pool) in
  Alcotest.(check int) "schema_version" Diagnostic.schema_version
    (json_int "schema_version" json);
  Alcotest.(check int) "top-level error count" 2 (json_int "errors" json);
  let summary = json_field "summary" json in
  Alcotest.(check int) "summary errors" 2 (json_int "errors" summary);
  Alcotest.(check int) "summary warnings" 1 (json_int "warnings" summary);
  Alcotest.(check int) "summary infos" 1 (json_int "infos" summary);
  let fam = json_field "by_family" summary in
  List.iter
    (fun key ->
      Alcotest.(check int) (key ^ " counted once") 1 (json_int key fam))
    [ "S0xx"; "T0xx"; "L0xx"; "A0xx" ]

let test_family () =
  List.iter
    (fun (code, fam) ->
      Alcotest.(check string) code fam (Diagnostic.family code))
    [ ("T002", "T0xx"); ("S101", "S1xx"); ("A001", "A0xx"); ("D005", "D0xx") ]

(* --- Generator specs (T02x) --- *)

let generator_fixtures =
  [ ("gen_shape.json", "T020", 2);
    ("gen_family.json", "T021", 2);
    ("gen_nodes.json", "T022", 2);
    ("gen_alpha.json", "T023", 2);
    ("gen_beta.json", "T024", 2);
    ("gen_sparse.json", "T025", 1) ]

let test_generator_fixtures () =
  List.iter
    (fun (name, code, exit_code) ->
      let diags, spec = Generator_check.check_file (fixture name) in
      check_has_code ~what:name code diags;
      Alcotest.(check int)
        (Printf.sprintf "%s exit code" name)
        exit_code
        (Diagnostic.exit_code diags);
      (* Errors never hand back a spec; mere warnings still do. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s spec presence" name)
        (exit_code < 2) (Option.is_some spec))
    generator_fixtures

let test_generator_fixture_counts () =
  (* gen_nodes breaks all three hierarchical sizes: one T022 each. *)
  let diags, _ = Generator_check.check_file (fixture "gen_nodes.json") in
  Alcotest.(check (list string))
    "every bad size reported" [ "T022"; "T022"; "T022" ] (codes diags)

let test_generator_lint_accepts_valid_specs () =
  List.iter
    (fun spec ->
      Alcotest.(check (list string))
        "valid spec lints clean" [] (codes (Generator_check.lint spec)))
    [ Generators.Waxman { nodes = 1000; alpha = 0.9; beta = 0.05 };
      Generators.Hierarchical
        { cores = 4; pops_per_core = 5; access_per_pop = 8 } ]

(* --- Located diagnostics (the file:line satellite) --- *)

let test_scenario_errors_carry_lines () =
  let diags = Checker.check_scenario_file (fixture "unknown_node.scn") in
  let s002 = List.find (fun d -> d.Diagnostic.code = "S002") diags in
  match s002.Diagnostic.location with
  | Some { Diagnostic.file; line = Some 4 } ->
    Alcotest.(check bool) "location names the fixture" true
      (Filename.basename file = "unknown_node.scn")
  | _ -> Alcotest.fail "S002 should point at unknown_node.scn line 4"

(* --- qcheck: the P0xx lint vs the table constructor --- *)

(* A paper-consistent entry for an arbitrary base_min: what
   Hnm_params.make computes, rebuilt here so the property covers bases
   the built-in table never uses. *)
let consistent_entry lt base_min =
  { Hnm_params.line_type = lt;
    base_min;
    max_cost = 3 * base_min;
    slope = float_of_int (4 * base_min);
    offset = -.float_of_int base_min;
    max_up = (base_min / 2) + 1;
    max_down = base_min / 2;
    min_change = (base_min / 2) - 1 }

let line_type_gen =
  QCheck2.Gen.map
    (fun i -> List.nth Line_type.all (i mod List.length Line_type.all))
    QCheck2.Gen.(int_range 0 (List.length Line_type.all - 1))

let prop_builtin_entries_pass =
  QCheck2.Test.make ~name:"every built-in table entry passes the P0xx lint"
    ~count:100 line_type_gen (fun lt ->
      Params_check.check_params (Hnm_params.for_line_type lt) = [])

let prop_consistent_entries_pass =
  (* 84 is the largest base_min whose 3x max_cost still fits in the
     8-bit reportable range (254). *)
  QCheck2.Test.make ~name:"paper-consistent entries pass for any base_min"
    ~count:200
    QCheck2.Gen.(pair line_type_gen (int_range 1 84))
    (fun (lt, base_min) ->
      Params_check.check_params (consistent_entry lt base_min) = [])

let prop_broken_max_cost_fails =
  QCheck2.Test.make ~name:"any max_cost off 3x base_min trips P001"
    ~count:200
    QCheck2.Gen.(triple line_type_gen (int_range 1 84) (int_range 1 50))
    (fun (lt, base_min, delta) ->
      let entry =
        { (consistent_entry lt base_min) with
          Hnm_params.max_cost = (3 * base_min) + delta }
      in
      has_code "P001" (Params_check.check_params entry))

(* --- Suite --- *)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "check"
    [ ("clean",
       [ Alcotest.test_case "shipped scenarios" `Quick
           test_shipped_scenarios_clean;
         Alcotest.test_case "default table" `Quick test_default_table_clean;
         Alcotest.test_case "spf closure" `Quick test_spf_closure_scoping ]);
      ("fixtures",
       [ Alcotest.test_case "scenarios" `Quick test_scenario_fixtures;
         Alcotest.test_case "params" `Quick test_params_fixtures;
         Alcotest.test_case "params isolated" `Quick
           test_params_fixtures_isolated;
         Alcotest.test_case "ablation R001" `Quick
           test_ablation_triggers_r001;
         Alcotest.test_case "src" `Quick test_src_fixtures;
         Alcotest.test_case "src scoping" `Quick test_src_lint_scoping;
         Alcotest.test_case "src comment tricks" `Quick
           test_src_comment_tricks;
         Alcotest.test_case "src parse failure" `Quick test_src_parse_failure;
         Alcotest.test_case "alloc artifacts" `Quick test_alloc_fixtures;
         Alcotest.test_case "domains artifacts" `Quick
           test_domains_fixtures;
         Alcotest.test_case "generators" `Quick test_generator_fixtures;
         Alcotest.test_case "generators counted" `Quick
           test_generator_fixture_counts;
         Alcotest.test_case "generators clean" `Quick
           test_generator_lint_accepts_valid_specs;
         Alcotest.test_case "locations" `Quick
           test_scenario_errors_carry_lines ]);
      ("diagnostics",
       [ Alcotest.test_case "merge dedup" `Quick test_merge_dedup;
         Alcotest.test_case "report order-independent" `Quick
           test_report_order_independent;
         Alcotest.test_case "json schema" `Quick test_json_schema;
         Alcotest.test_case "families" `Quick test_family ]);
      ("properties",
       qsuite
         [ prop_builtin_entries_pass;
           prop_consistent_entries_pass;
           prop_broken_max_cost_fails;
           prop_merge_order_independent ]) ]
